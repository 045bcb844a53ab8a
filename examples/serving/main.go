// Serving: run an experiment campaign through an in-process prestod
// server — submit, follow the event stream, and fetch the report —
// using the same server.Client that cmd/prestoctl wraps. The daemon's
// artifacts are byte-identical to a direct campaign.Run of the same
// request, so serving is a deployment choice, not a results fork.
//
//	go run ./examples/serving
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"time"

	"presto"
	"presto/internal/campaign"
	"presto/internal/server"
	"presto/internal/sim"
	wspec "presto/internal/workload/spec"
)

func main() {
	// The daemon core is an http.Handler; embedding it takes a spec
	// builder (how job requests become campaigns — presto.Campaign, the
	// one every front door shares) and a data dir.
	srv, err := server.New(server.Config{
		SpecBuilder: func(req campaign.Request) (*campaign.Spec, error) { return presto.Campaign(req, nil) },
		Workers:     2,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close() //prestolint:allow errdrop -- example exits right after; the server logs its own shutdown failures

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go func() { _ = http.Serve(ln, srv) }()
	fmt.Printf("prestod serving on %s\n\n", ln.Addr())

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	c := &server.Client{BaseURL: "http://" + ln.Addr().String()}

	// Submit the GRO microbenchmark (fig5) with two seed replicas.
	st, err := c.Submit(ctx, campaign.Request{
		Experiments: "fig5",
		Seeds:       2,
		Parallelism: 4,
		Duration:    wspec.Duration(20 * sim.Millisecond),
		Warmup:      wspec.Duration(5 * sim.Millisecond),
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("submitted %s (%d cells x %d replicas)\n", st.ID, st.Cells, st.Replicas/max(st.Cells, 1))

	// Follow the live event stream: state transitions and per-replica
	// progress lines, exactly what `prestoctl events` prints.
	err = c.Events(ctx, st.ID, 0, func(ev server.Event) error {
		switch ev.Type {
		case "state":
			fmt.Printf("  [%s] -> %s\n", ev.Job, ev.State)
		case "progress":
			fmt.Printf("  [%s] %s\n", ev.Job, ev.Line)
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}

	final, err := c.Wait(ctx, st.ID)
	if err != nil {
		log.Fatal(err)
	}
	if final.State != server.StateDone {
		log.Fatalf("job %s: %s", final.State, final.Error)
	}

	// Fetch the report and read a headline number out of it.
	raw, err := c.Artifact(ctx, st.ID, "report.json")
	if err != nil {
		log.Fatal(err)
	}
	var report campaign.Report
	if err := json.Unmarshal(raw, &report); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nreport.json: spec %s, %d cells, %d bytes\n", report.SpecHash, len(report.Cells), len(raw))
	for _, cell := range report.Cells {
		fmt.Printf("  %s  tput_gbps envelope %s\n", cell.ID, cell.Envelopes["tput_gbps"])
	}
	fmt.Println("\nThe same bytes come out of `experiments -run fig5 -seeds 2 -out DIR`:")
	fmt.Println("results depend on the spec, never on where or how wide it ran.")
}

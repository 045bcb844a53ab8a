package presto

import (
	"bytes"
	"encoding/json"
	"testing"

	"presto/internal/campaign"
	"presto/internal/sim"
	wspec "presto/internal/workload/spec"
)

// specCampaign builds a one-system campaign of the named preset with
// the given worker count — the spec-workload analogue of fig5Spec.
func specCampaign(t *testing.T, name string, parallelism, seeds int) *campaign.Spec {
	t.Helper()
	spec, err := Campaign(campaign.Request{
		Workload:    json.RawMessage(`"` + name + `"`),
		Scheme:      "presto",
		Seeds:       seeds,
		Parallelism: parallelism,
		Duration:    wspec.Duration(10 * sim.Millisecond),
		Warmup:      wspec.Duration(5 * sim.Millisecond),
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSpecWorkloadDeterministicAcrossParallelism is the workload-spec
// determinism invariant: the same spec + seed must produce
// byte-identical campaign artifacts at -parallel 1 and -parallel 8,
// because every random draw comes from per-client streams derived from
// the run seed, never from scheduling. mice-heavy covers the rate-based
// clients; random and shuffle cover once+random pairs, request/response
// mice and the closed-loop shuffle.
func TestSpecWorkloadDeterministicAcrossParallelism(t *testing.T) {
	for _, name := range []string{"mice-heavy", "random", "shuffle"} {
		t.Run(name, func(t *testing.T) { parallelismInvariant(t, name) })
	}
}

func parallelismInvariant(t *testing.T, name string) {
	artifacts := func(parallelism int) (string, string) {
		report, err := campaign.Run(specCampaign(t, name, parallelism, 2))
		if err != nil {
			t.Fatal(err)
		}
		var j, c bytes.Buffer
		if err := report.WriteJSON(&j); err != nil {
			t.Fatal(err)
		}
		if err := report.WriteCSV(&c); err != nil {
			t.Fatal(err)
		}
		return j.String(), c.String()
	}
	j1, c1 := artifacts(1)
	j8, c8 := artifacts(8)
	if j1 != j8 {
		t.Error("report JSON differs between -parallel 1 and -parallel 8")
	}
	if c1 != c8 {
		t.Error("report CSV differs between -parallel 1 and -parallel 8")
	}
}

// TestSpecWorkloadHashInArtifacts checks the manifest/report carry the
// workload hash: cells record it and the manifest lists it, so cached
// or archived artifacts key on the exact workload definition.
func TestSpecWorkloadHashInArtifacts(t *testing.T) {
	spec := specCampaign(t, "mice-heavy", 2, 1)
	report, err := campaign.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	ws, err := wspec.Preset("mice-heavy")
	if err != nil {
		t.Fatal(err)
	}
	want := ws.Hash()
	if len(report.Cells) == 0 || report.Cells[0].Workload != want {
		t.Errorf("cell workload hash = %q, want %q", report.Cells[0].Workload, want)
	}
	m := report.Manifest("")
	if len(m.Workloads) != 1 || m.Workloads[0] != want {
		t.Errorf("manifest workloads = %v, want [%s]", m.Workloads, want)
	}
}

// TestRunSpecWorkloadNorthSouth covers the remote-user topology path
// end to end through the facade: a north-south client compiles and
// moves traffic on the spine-attached 100 Mbps hosts.
func TestRunSpecWorkloadNorthSouth(t *testing.T) {
	ws := &wspec.Spec{
		Version:       wspec.Version,
		Name:          "ns-test",
		AggregateRate: 500,
		Clients: []wspec.Client{{
			ID:           "ns",
			RateFraction: 1,
			Arrival:      wspec.Arrival{Process: wspec.ProcPoisson},
			Size:         wspec.SizeDist{Kind: wspec.SizeFixed, Bytes: 20000},
			Select:       wspec.Select{Kind: wspec.SelNorthSouth},
		}},
	}
	clients := runCell(t, specCell(paper("presto"), ws), Options{
		Seed:     1,
		Duration: 10 * sim.Millisecond,
		Warmup:   2 * sim.Millisecond,
	}).Clients
	if len(clients) != 1 || clients[0].Finished == 0 {
		t.Fatalf("north-south client finished no flows: %+v", clients)
	}
}

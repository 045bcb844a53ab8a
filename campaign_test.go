package presto

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"strings"
	"testing"

	"presto/internal/campaign"
	"presto/internal/sim"
	wspec "presto/internal/workload/spec"
)

// fastReq is a request with the windows cut far below the defaults.
func fastReq(r campaign.Request) campaign.Request {
	r.Duration = wspec.Duration(20 * sim.Millisecond)
	r.Warmup = wspec.Duration(5 * sim.Millisecond)
	return r
}

// fig5Spec builds a small real-cell campaign (GRO microbenchmark, the
// cheapest experiment) with the given worker count.
func fig5Spec(t *testing.T, parallelism, seeds int) *campaign.Spec {
	t.Helper()
	spec, err := Campaign(fastReq(campaign.Request{Experiments: "fig5", Seeds: seeds, Parallelism: parallelism}), nil)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestCampaignDeterministicAcrossParallelism runs real simulator cells
// at -parallel 1 and -parallel 4 and requires byte-identical JSON and
// CSV artifacts: scheduling must never leak into results.
func TestCampaignDeterministicAcrossParallelism(t *testing.T) {
	artifacts := func(parallelism int) (string, string) {
		report, err := campaign.Run(fig5Spec(t, parallelism, 2))
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
	j4, c4 := artifacts(4)
	if j1 != j4 {
		t.Error("report JSON differs between -parallel 1 and -parallel 4")
	}
	if c1 != c4 {
		t.Error("report CSV differs between -parallel 1 and -parallel 4")
	}
}

// TestSeedRecordedInResults checks the replay contract: every run's
// result carries the seed that produced it.
func TestSeedRecordedInResults(t *testing.T) {
	opt := Options{
		Seed:     7,
		Duration: 20 * sim.Millisecond,
		Warmup:   5 * sim.Millisecond,
	}
	for _, id := range []string{"fig15/wl=stride/sys=ECMP", "fig5/gro=official"} {
		if r := runFigure(t, id, opt); r.Seed != 7 {
			t.Errorf("%s: LoadResult.Seed = %d, want 7", id, r.Seed)
		}
	}
}

// TestCampaignSpecSelection exercises the ID parser: single, multiple,
// all, and unknown selections.
func TestCampaignSpecSelection(t *testing.T) {
	build := func(sel string) (*campaign.Spec, error) {
		return Campaign(fastReq(campaign.Request{Experiments: sel}), nil)
	}
	single, err := build("fig5")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range single.Cells {
		if c.Experiment != "fig5" {
			t.Errorf("fig5 selection produced cell %s of experiment %q", c.ID, c.Experiment)
		}
	}

	multi, err := build("fig5,table1")
	if err != nil {
		t.Fatal(err)
	}
	if len(multi.Cells) <= len(single.Cells) {
		t.Errorf("fig5,table1 has %d cells, want more than fig5's %d", len(multi.Cells), len(single.Cells))
	}

	all, err := build("all")
	if err != nil {
		t.Fatal(err)
	}
	if len(all.Cells) < len(multi.Cells) {
		t.Errorf("all has %d cells, want at least %d", len(all.Cells), len(multi.Cells))
	}

	if _, err := build("fig99"); err == nil {
		t.Error("unknown experiment ID accepted")
	}
	if _, err := build(""); err == nil {
		t.Error("empty selection accepted")
	}
	if _, err := build(" , "); err == nil {
		t.Error("blank selection accepted")
	}
}

// TestCampaignExperimentIDs checks the registry lists every paper
// artifact and titles resolve.
func TestCampaignExperimentIDs(t *testing.T) {
	ids := CampaignExperimentIDs()
	if len(ids) == 0 {
		t.Fatal("no experiment IDs registered")
	}
	seen := map[string]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Errorf("duplicate experiment ID %q", id)
		}
		seen[id] = true
		if CampaignExperimentTitle(id) == "" {
			t.Errorf("experiment %q has no title", id)
		}
	}
	for _, want := range []string{"fig1", "fig5", "fig7", "table1", "table2", "ablations"} {
		if !seen[want] {
			t.Errorf("experiment registry missing %q", want)
		}
	}
}

// TestOneSchemeNameTable checks every door resolves a scheme name the
// same way: each lineup spelling (and a registry spec with a
// parameter) given as `experiments -workload elephants -scheme NAME`
// flags and as a prestod JSON job lands on the same cell as
// SpecCell(NAME), the cell capture and the examples build.
func TestOneSchemeNameTable(t *testing.T) {
	names := []string{"diffflow:threshold=512KB", "OPTIMAL"}
	for _, row := range lineup {
		names = append(names, row.name)
	}
	ws, err := wspec.Preset("elephants")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		var flags, wire campaign.Request
		fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
		flags.Bind(fs)
		if err := fs.Parse([]string{"-workload", "elephants", "-scheme", name}); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal([]byte(`{"workload": "elephants", "scheme": "`+name+`"}`), &wire); err != nil {
			t.Fatal(err)
		}
		fromFlags, err := Campaign(flags, nil)
		if err != nil {
			t.Fatalf("flags, %s: %v", name, err)
		}
		fromWire, err := Campaign(wire, nil)
		if err != nil {
			t.Fatalf("JSON, %s: %v", name, err)
		}
		cell, err := SpecCell(name, ws)
		if err != nil {
			t.Fatalf("SpecCell(%s): %v", name, err)
		}
		want := cell.ID
		if len(fromFlags.Cells) != 1 || fromFlags.Cells[0].ID != want || fromWire.Cells[0].ID != want || fromFlags.Hash() != fromWire.Hash() {
			t.Errorf("%s: flags → %s (%s), JSON → %s (%s), SpecCell → %s", name,
				fromFlags.Cells[0].ID, fromFlags.Hash(), fromWire.Cells[0].ID, fromWire.Hash(), want)
		}
	}
	// Bad params keep the registry's own error; unknown names list both kinds.
	_, err = Campaign(campaign.Request{Workload: json.RawMessage(`"elephants"`), Scheme: "presto:cell=1"}, nil)
	if err == nil || strings.Contains(err.Error(), "unknown system") {
		t.Errorf("bad param error = %v, want the registry's", err)
	}
	_, err = Campaign(campaign.Request{Workload: json.RawMessage(`"elephants"`), Scheme: "nosuch"}, nil)
	if err == nil || !strings.Contains(err.Error(), "flowlet100") {
		t.Errorf("unknown system error = %v, want the lineup listing", err)
	}
}

// TestMultiKeySchemeLists: a scheme spec with two keys crosses every
// door whole. In a scheme list, an element with "=" but no ":"
// continues the spec before it, so flags and a prestod request build
// the same cells and spec hash; a leading key with no scheme stays an
// error.
func TestMultiKeySchemeLists(t *testing.T) {
	for list, want := range map[string][]string{
		"diffflow:cell=32KB,threshold=512KB": {"workload-spec/wl=elephants/sys=diffflow:cell=32KB,threshold=512KB"},
		"ecmp:gro=presto,alpha=1,presto":     {"workload-spec/wl=elephants/sys=ecmp:alpha=1,gro=presto", "workload-spec/wl=elephants/sys=Presto"},
	} {
		var flags, wire campaign.Request
		fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
		flags.Bind(fs)
		if err := fs.Parse([]string{"-workload", "elephants", "-scheme", list}); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal([]byte(`{"workload": "elephants", "scheme": "`+list+`"}`), &wire); err != nil {
			t.Fatal(err)
		}
		fromFlags, err := Campaign(flags, nil)
		if err != nil {
			t.Fatalf("flags, %s: %v", list, err)
		}
		fromWire, err := Campaign(wire, nil)
		if err != nil {
			t.Fatalf("JSON, %s: %v", list, err)
		}
		var ids []string
		for _, c := range fromFlags.Cells {
			ids = append(ids, c.ID)
		}
		if fmt.Sprint(ids) != fmt.Sprint(want) || fromFlags.Hash() != fromWire.Hash() {
			t.Errorf("%s: flags → %v (%s), JSON hash %s; want cells %v", list, ids, fromFlags.Hash(), fromWire.Hash(), want)
		}
	}
	_, err := Campaign(campaign.Request{Workload: json.RawMessage(`"elephants"`), Scheme: "threshold=512KB,presto"}, nil)
	if err == nil || !strings.Contains(err.Error(), `unknown system "threshold=512KB"`) {
		t.Errorf("leading key: err = %v, want unknown system", err)
	}
}

// TestCampaignDefaultsAndShards pins the one defaults rule — a zero
// request field means its default, whichever door left it zero — and
// that shards a workload cannot run on fail the build with Compile's
// field-path error rather than every replica later.
func TestCampaignDefaultsAndShards(t *testing.T) {
	zero, err := Campaign(campaign.Request{Experiments: "fig5"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := Campaign(campaign.Request{
		Experiments: "fig5", Seed: 1, Seeds: 1, Shards: 1,
		Duration: wspec.Duration(200 * sim.Millisecond), Warmup: wspec.Duration(50 * sim.Millisecond),
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(zero.Seeds) != 1 || zero.Seeds[0] != 1 || zero.Hash() != explicit.Hash() {
		t.Errorf("zero request: seeds %v hash %s, explicit defaults hash %s", zero.Seeds, zero.Hash(), explicit.Hash())
	}
	if zero.CellTimeout != 0 || zero.Parallelism != 0 {
		t.Errorf("zero request: cell timeout %v, parallelism %d; want none and GOMAXPROCS (0)", zero.CellTimeout, zero.Parallelism)
	}
	if neg, _ := Campaign(campaign.Request{Experiments: "fig5", Seeds: -3}, nil); len(neg.Seeds) != 1 {
		t.Errorf("seeds -3 → %v, want one replica", neg.Seeds)
	}

	_, err = Campaign(campaign.Request{Workload: json.RawMessage(`"stride"`), Shards: 2}, nil)
	if err == nil || !strings.Contains(err.Error(), "clients[1].arrival.process") {
		t.Errorf("stride at 2 shards: err = %v, want Compile's field-path error", err)
	}
	for _, ok := range []campaign.Request{
		{Workload: json.RawMessage(`"elephants"`), Shards: 2},
		{Workload: json.RawMessage(`"stride"`), Shards: 1},
		{Experiments: "fig5,podtraffic", Shards: 4},
	} {
		if _, err := Campaign(ok, nil); err != nil {
			t.Errorf("%+v rejected: %v", ok, err)
		}
	}
}

// TestCampaignHashSpellsWindowsExactly: windows a nanosecond apart run
// differently, so their campaigns must not share a spec hash.
func TestCampaignHashSpellsWindowsExactly(t *testing.T) {
	hash := func(duration sim.Time) string {
		spec, err := Campaign(campaign.Request{Experiments: "fig6", Warmup: wspec.Duration(sim.Millisecond), Duration: wspec.Duration(duration)}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return spec.Hash()
	}
	if a, b := hash(1234567), hash(1234568); a == b {
		t.Errorf("-duration 1234567ns and 1234568ns share spec hash %s", a)
	}
}

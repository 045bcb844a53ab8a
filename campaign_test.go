package presto

import (
	"bytes"
	"testing"

	"presto/internal/campaign"
	"presto/internal/sim"
)

// fig5Spec builds a small real-cell campaign (GRO microbenchmark, the
// cheapest experiment) with the given worker count.
func fig5Spec(t *testing.T, parallelism, seeds int) *campaign.Spec {
	t.Helper()
	opt := Options{
		Duration: 20 * sim.Millisecond,
		Warmup:   5 * sim.Millisecond,
	}
	spec, err := CampaignSpec("fig5", opt)
	if err != nil {
		t.Fatal(err)
	}
	spec.Seeds = campaign.Seeds(1, seeds)
	spec.Parallelism = parallelism
	return spec
}

// TestCampaignDeterministicAcrossParallelism runs real simulator cells
// at -parallel 1 and -parallel 4 and requires byte-identical JSON and
// CSV artifacts: scheduling must never leak into results.
func TestCampaignDeterministicAcrossParallelism(t *testing.T) {
	artifacts := func(parallelism int) (string, string) {
		report, err := RunCampaign(fig5Spec(t, parallelism, 2))
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
	opt := Options{Duration: 20 * sim.Millisecond, Warmup: 5 * sim.Millisecond}

	single, err := CampaignSpec("fig5", opt)
	if err != nil {
		t.Fatal(err)
	}
	if got := ExperimentsInReport(&campaign.Report{Cells: resultsOf(single)}); len(got) != 1 || got[0] != "fig5" {
		t.Errorf("fig5 selection produced experiments %v", got)
	}

	multi, err := CampaignSpec("fig5,table1", opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(multi.Cells) <= len(single.Cells) {
		t.Errorf("fig5,table1 has %d cells, want more than fig5's %d", len(multi.Cells), len(single.Cells))
	}

	all, err := CampaignSpec("all", opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(all.Cells) < len(multi.Cells) {
		t.Errorf("all has %d cells, want at least %d", len(all.Cells), len(multi.Cells))
	}

	if _, err := CampaignSpec("fig99", opt); err == nil {
		t.Error("unknown experiment ID accepted")
	}
	if _, err := CampaignSpec("", opt); err == nil {
		t.Error("empty selection accepted")
	}
}

// resultsOf turns a spec's cells into empty CellResults so the
// experiment listing can be checked without running anything.
func resultsOf(spec *campaign.Spec) []campaign.CellResult {
	out := make([]campaign.CellResult, len(spec.Cells))
	for i, c := range spec.Cells {
		out[i] = campaign.CellResult{Experiment: c.Experiment, ID: c.ID}
	}
	return out
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

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Verdicts of -agree for one (metric, workload) pair.
const (
	verdictWithin     = "within"     // B's median is no worse than A's by more than the bound
	verdictRegressed  = "regressed"  // it is worse by more than the bound
	verdictUnresolved = "unresolved" // it looks worse, but the runs spread wider than the bound
	verdictIdentical  = "identical"  // exact statistic, bit-equal
	verdictDiffers    = "differs"    // exact statistic, not bit-equal
)

// loadResults reads every workload result file in dir, keyed by
// workload name.
func loadResults(dir string) (map[string]*workloadResult, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	out := map[string]*workloadResult{}
	for _, p := range paths {
		if strings.HasSuffix(p, ".trace.json") {
			continue
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		r := &workloadResult{}
		if err := json.Unmarshal(data, r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		out[r.Workload] = r
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no result files", dir)
	}
	return out, nil
}

// comparable strips what two result sets of different commits may
// legitimately differ in; everything left must match for a comparison
// to mean anything.
func (p provenance) comparable() provenance {
	p.Commit, p.Reps = "", 0
	return p
}

// spread is the range of a metric's samples as a share of its median.
func (s summary) spread() float64 {
	return ratio(s.Max-s.Min, s.Value)
}

// compareHost judges a host-kind metric: how much worse B's median is
// than A's, against the bound, with the run-to-run spread deciding
// whether a seeming regression can be resolved at all.
func compareHost(def metricDef, a, b summary) (spread float64, verdict string) {
	worse := ratio(b.Value-a.Value, a.Value)
	allBetter := b.Max < a.Min
	if def.Better == "higher" {
		worse = -worse
		allBetter = b.Min > a.Max
	}
	spread = max(a.spread(), b.spread())
	switch {
	case worse <= def.Bound || allBetter:
		return spread, verdictWithin
	case spread > def.Bound:
		return spread, verdictUnresolved
	default:
		return spread, verdictRegressed
	}
}

// agreeDirs compares result set B against A, printing per (metric,
// workload) both medians, the spread and a verdict. Host-kind
// end-to-end metrics must stay within their bounds; sim-kind metrics
// and every exact count must be bit-equal. It reports whether the sets
// agree, and refuses sets that were not produced with the same
// settings.
func agreeDirs(w io.Writer, dirA, dirB string) (bool, error) {
	setA, err := loadResults(dirA)
	if err != nil {
		return false, err
	}
	setB, err := loadResults(dirB)
	if err != nil {
		return false, err
	}
	names := make([]string, 0, len(setA))
	for name := range setA {
		names = append(names, name)
	}
	sort.Strings(names)

	agree := true
	fmt.Fprintf(w, "%-18s %-28s %14s %14s %8s  %s\n", "workload", "metric", "A", "B", "spread", "verdict")
	row := func(workload, metric string, a, b, spread float64, verdict string) {
		fmt.Fprintf(w, "%-18s %-28s %14.6g %14.6g %7.2f%%  %s\n", workload, metric, a, b, 100*spread, verdict)
		if verdict == verdictRegressed || verdict == verdictDiffers {
			agree = false
		}
	}
	for _, name := range names {
		a, b := setA[name], setB[name]
		if b == nil {
			return false, fmt.Errorf("%s: workload %s missing", dirB, name)
		}
		if pa, pb := a.Provenance.comparable(), b.Provenance.comparable(); pa != pb {
			return false, fmt.Errorf("%s: result sets were produced with different settings:\n  A %+v\n  B %+v", name, pa, pb)
		}
		for _, def := range endToEnd {
			sa, sb := a.EndToEnd[def.Name], b.EndToEnd[def.Name]
			if def.Kind == kindSim {
				row(name, def.Name, sa.Value, sb.Value, 0, exact(sa.Value == sb.Value && sa.Min == sb.Min && sa.Max == sb.Max))
				continue
			}
			spread, verdict := compareHost(def, sa, sb)
			row(name, def.Name, sa.Value, sb.Value, spread, verdict)
		}
		// The exact statistics: report each one that differs, then the
		// tally. Host-kind per-layer metrics carry no bound and are not
		// judged.
		differ := 0
		for _, k := range sortedKeys(a.Sim, b.Sim) {
			if a.Sim[k] != b.Sim[k] {
				row(name, k, a.Sim[k], b.Sim[k], 0, verdictDiffers)
				differ++
			}
		}
		if a.Attempted != b.Attempted || a.Failed != b.Failed || a.Correct != b.Correct {
			row(name, "attempted/failed", float64(a.Failed), float64(b.Failed), 0, verdictDiffers)
			differ++
		}
		fmt.Fprintf(w, "%-18s %d of %d exact statistics %s\n", name, len(a.Sim)-differ, len(a.Sim), exact(differ == 0))
	}
	return agree, nil
}

func exact(same bool) string {
	if same {
		return verdictIdentical
	}
	return verdictDiffers
}

// sortedKeys returns the union of both maps' keys, sorted.
func sortedKeys(a, b map[string]float64) []string {
	seen := map[string]bool{}
	var keys []string
	for _, m := range []map[string]float64{a, b} {
		for k := range m {
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
	}
	sort.Strings(keys)
	return keys
}

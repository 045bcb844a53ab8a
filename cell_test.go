package presto

import (
	"testing"

	"presto/internal/param"
)

// resolveMeasure looks a measure spec up in the measures table: its
// name, the values it sets and its resolved values. It fails the test
// if the table does not resolve the spec.
func resolveMeasure(t testing.TB, spec string) (string, map[string]string, param.Resolved) {
	t.Helper()
	name, set, vals, err := param.Lookup("measure", spec, measures, measure.schema)
	if err != nil {
		t.Fatal(err)
	}
	return name, set, vals
}

// canonicalMeasure renders a measure spec in its one spelling
// (param.Normal).
func canonicalMeasure(t testing.TB, spec string) string {
	t.Helper()
	name, _, vals := resolveMeasure(t, spec)
	return param.Normal(name, measures[name].params, vals)
}

// TestEveryMeasureRuns keeps the measures table to the measurements
// some run takes: every measure, every key of its schema and every
// value of an enum key must be set by a cell of `-run all` or a
// -workload cell, and each cell spells its measure canonically.
func TestEveryMeasureRuns(t *testing.T) {
	// used holds every measure name a cell names ("ablation"), every
	// key it sets ("sizesplit.drain") and every enum value it takes,
	// the default included ("ablation.extra=none").
	used := map[string]bool{}
	for _, c := range append(tableCells(t), specCell(paper("presto"), preset("elephants"))) {
		if canon := canonicalMeasure(t, c.Measure); canon != c.Measure {
			t.Errorf("%s: measure %q is spelled %q", c.ID, c.Measure, canon)
		}
		name, set, vals := resolveMeasure(t, c.Measure)
		used[name] = true
		for k := range set {
			used[name+"."+k] = true
		}
		for _, p := range measures[name].params {
			if p.Kind == param.KindEnum {
				used[name+"."+p.Name+"="+vals.Enum(p.Name)] = true
			}
		}
	}
	for _, name := range param.Keys(measures) {
		if !used[name] {
			t.Errorf("measure %s is named by no cell", name)
		}
		for _, p := range measures[name].params {
			key := name + "." + p.Name
			if p.Kind != param.KindEnum && !used[key] {
				t.Errorf("key %s is set by no cell", key)
			}
			for _, v := range p.Values {
				if !used[key+"="+v] {
					t.Errorf("value %s=%s is taken by no cell", key, v)
				}
			}
		}
	}
}

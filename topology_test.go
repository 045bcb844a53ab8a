package presto

import (
	"cmp"
	"maps"
	"strconv"
	"strings"
	"testing"

	"presto/internal/campaign"
	"presto/internal/scheme"
	"presto/internal/topo"
)

// tableCells walks every cell `-run all`, a parameterised scheme
// matrix and the podtraffic row at the given topologies build.
func tableCells(t testing.TB, podTopos ...string) []Cell {
	t.Helper()
	reqs := []campaign.Request{
		{Experiments: "all"},
		{Experiments: "scheme-matrix", Scheme: "presto,presto:cell=16KB,flowlet100"},
	}
	for _, tp := range podTopos {
		reqs = append(reqs, campaign.Request{Experiments: "podtraffic", Topology: tp})
	}
	var cells []Cell
	for _, req := range reqs {
		got, err := selectCells(req, &campaign.Spec{Params: map[string]string{}})
		if err != nil {
			t.Fatal(err)
		}
		cells = append(cells, got...)
	}
	return cells
}

// TestCellIDsIdentifyCells requires a cell ID to name one cell: two
// cells that share an ID must run the same normal scheme spec on the
// same canonical fabric under the same workload, measured the same
// way. Its podtraffic leg is two pod fabrics that differ only in hosts
// per leaf.
func TestCellIDsIdentifyCells(t *testing.T) {
	type identity struct {
		scheme, topology, workload, measure string
		optimal                             bool
	}
	seen := map[string]identity{}
	for _, c := range tableCells(t, "clos3:pods=2,hpl=1", "clos3:pods=2,hpl=2") {
		ts, err := topo.ParseSpec(cmp.Or(c.Topo, "clos"))
		if err != nil {
			t.Fatalf("%s: %v", c.ID, err)
		}
		sch, err := scheme.ParseSpec(c.Scheme)
		if err != nil {
			t.Fatalf("%s: %v", c.ID, err)
		}
		id := identity{sch.Normal(), ts.String(), c.Workload.Hash(), canonicalMeasure(t, c.Measure), c.optimal}
		if prev, ok := seen[c.ID]; ok && prev != id {
			t.Errorf("cell ID %s names two cells:\n  %+v\n  %+v", c.ID, prev, id)
		}
		seen[c.ID] = id
	}
}

// hostKeys are each topology shape's host-count keys and their
// defaults, beside the factor no key sets ("fixed": clos3's 2 leaves
// per pod, the mesh's 16 hosts): a fabric's host count is their
// product.
var hostKeys = map[string]map[string]int{
	"clos":   {"leaves": 4, "hpl": 4},
	"clos3":  {"pods": 4, "hpl": 2, "fixed": 2},
	"mesh":   {"fixed": 16},
	"single": {"hosts": 16},
}

// FuzzTopologySpec feeds topo.ParseSpec any string: it must refuse it
// or build a fabric whose host count is the product of the spec's
// host keys, and its canonical form must parse back to itself. The
// seeds are every fabric of the experiment table.
func FuzzTopologySpec(f *testing.F) {
	seeds := map[string]bool{}
	for _, c := range tableCells(f, "clos3:pods=25,hpl=20", "clos:hpl=8,leaves=8,spines=8") {
		if !seeds[c.Topo] {
			seeds[c.Topo] = true
			f.Add(c.Topo)
		}
	}
	f.Add("clos:queue=8MB,ecn=200KB")
	f.Fuzz(func(t *testing.T, spec string) {
		ts, err := topo.ParseSpec(spec)
		if err != nil {
			return
		}
		canon := ts.String()
		again, err := topo.ParseSpec(canon)
		if err != nil || again.String() != canon {
			t.Fatalf("%q renders %q, which parses to %v, %v", spec, canon, again, err)
		}
		name, set, _ := strings.Cut(canon, ":")
		hosts := maps.Clone(hostKeys[name])
		for _, kv := range strings.Split(set, ",") {
			if k, v, _ := strings.Cut(kv, "="); hosts[k] != 0 {
				hosts[k], _ = strconv.Atoi(v)
			}
		}
		want := 1
		for _, n := range hosts {
			want *= n
		}
		if got := ts.Build().NumHosts(); got != want {
			t.Fatalf("%q (%s) built %d hosts, want %d", spec, canon, got, want)
		}
	})
}

package presto

import (
	"fmt"
	"strings"
	"testing"

	"presto/internal/campaign"
	"presto/internal/scheme"
)

// matrixReq is a scheme-matrix request restricted to the given schemes.
func matrixReq(schemes string) campaign.Request {
	return fastReq(campaign.Request{Experiments: "scheme-matrix", Scheme: schemes})
}

func TestSchemeMatrixSpecCoversRegistry(t *testing.T) {
	spec, err := Campaign(matrixReq(""), nil)
	if err != nil {
		t.Fatal(err)
	}
	schemes := scheme.Names()
	want := len(schemes) * len(matrixWorkloads) * len(matrixTopos)
	if len(spec.Cells) != want {
		t.Fatalf("%d cells, want %d (schemes × workloads × topos)", len(spec.Cells), want)
	}
	// Cell IDs are the golden-gate contract: scheme-matrix/scheme=S/wl=W/topo=T,
	// iterated scheme-major in sorted registry order.
	i := 0
	for _, s := range schemes {
		for _, wl := range matrixWorkloads {
			for _, tp := range matrixTopos {
				want := fmt.Sprintf("scheme-matrix/scheme=%s/wl=%s/topo=%s", s, wl, tp)
				if got := spec.Cells[i].ID; got != want {
					t.Fatalf("cell %d ID %q, want %q", i, got, want)
				}
				i++
			}
		}
	}
}

func TestSchemeMatrixRejectsUnknownScheme(t *testing.T) {
	if _, err := Campaign(matrixReq("nosuch"), nil); err == nil {
		t.Fatal("unknown scheme accepted")
	}
	if _, err := Campaign(matrixReq("presto:bogus=1"), nil); err == nil {
		t.Fatal("bad param accepted")
	}
	// Optimal swaps the topology the matrix itself varies.
	if _, err := Campaign(matrixReq("optimal"), nil); err == nil {
		t.Fatal("optimal accepted as a matrix scheme")
	}
}

// TestSchemeMatrixIDsCarryParams pins the second front-door bug: a
// re-parameterised scheme must not share cell IDs (and therefore spec
// hash and golden envelopes) with its default, two variants of one
// scheme are distinct cells rather than a duplicate-ID error, and
// default-parameter IDs keep the registry name whichever spelling
// selected them.
func TestSchemeMatrixIDsCarryParams(t *testing.T) {
	build := func(schemes string) *campaign.Spec {
		t.Helper()
		spec, err := Campaign(matrixReq(schemes), nil)
		if err != nil {
			t.Fatal(err)
		}
		return spec
	}
	def, tuned := build("presto"), build("presto:cell=16KB")
	if got := def.Cells[0].ID; got != "scheme-matrix/scheme=presto/wl=elephants/topo=clos" {
		t.Errorf("default-parameter cell ID moved: %q", got)
	}
	if got := tuned.Cells[0].ID; got != "scheme-matrix/scheme=presto:cell=16KB/wl=elephants/topo=clos" {
		t.Errorf("param override missing from cell ID: %q", got)
	}
	if def.Hash() == tuned.Hash() {
		t.Errorf("presto and presto:cell=16KB share spec hash %s", def.Hash())
	}
	both := build("presto,presto:cell=16KB,flowlet100")
	if want := 3 * len(matrixWorkloads) * len(matrixTopos); len(both.Cells) != want {
		t.Errorf("three variants built %d cells, want %d", len(both.Cells), want)
	}
	if id := both.Cells[len(both.Cells)-1].ID; !strings.Contains(id, "scheme=flowlet:gap=100us/") {
		t.Errorf("paper name flowlet100 should be named by its canonical spec, got %q", id)
	}
	seen := map[string]bool{}
	for _, c := range both.Cells {
		if seen[c.ID] {
			t.Errorf("duplicate cell ID %q", c.ID)
		}
		seen[c.ID] = true
	}
}

// TestNewSchemesSelectableByName pins the acceptance criterion: each
// of the four new policies resolves through SpecCell — with and
// without parameters — to a cell running that scheme.
func TestNewSchemesSelectableByName(t *testing.T) {
	for _, spec := range []string{
		"diffflow", "diffflow:threshold=512KB,cell=32KB",
		"sprinklers", "sprinklers:min-stripe=128KB",
		"rdna-balance", "rdna-balance:isolated-frac=0.5",
		"spritz", "spritz:cell=32KB",
	} {
		cell, err := SpecCell(spec, preset("elephants"))
		if err != nil {
			t.Fatalf("SpecCell(%q): %v", spec, err)
		}
		if name, _, _ := strings.Cut(spec, ":"); !strings.HasPrefix(cell.Scheme, name+":") && cell.Scheme != name {
			t.Errorf("SpecCell(%q) runs scheme %q", spec, cell.Scheme)
		}
	}
}

// TestSchemeMatrixRunsOneScheme executes a single-scheme slice of the
// matrix end to end: all three workloads on both topologies must
// produce results (throughput for elephants, FCT samples for mice
// workloads) on clos and mesh alike.
func TestSchemeMatrixRunsOneScheme(t *testing.T) {
	spec, err := Campaign(matrixReq("diffflow"), nil)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := campaign.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if failed := rep.FailedReplicas(); len(failed) > 0 {
		t.Fatalf("failed replicas: %v", failed)
	}
	for _, tp := range matrixTopos {
		id := func(wl string) string { return "scheme-matrix/scheme=diffflow/wl=" + wl + "/topo=" + tp }
		if e, ok := rep.Envelope(id("elephants"), "tput_gbps"); !ok || e.Mean <= 0 {
			t.Errorf("elephants on %s: no throughput (%v, %v)", tp, e, ok)
		}
		for _, wl := range []string{"mice-heavy", "incast32"} {
			if e, ok := rep.Envelope(id(wl), "fct_ms_mean"); !ok || e.Mean <= 0 {
				t.Errorf("%s on %s: no FCT (%v, %v)", wl, tp, e, ok)
			}
		}
	}
}

package presto

import (
	"strings"
	"testing"

	"presto/internal/campaign"
	"presto/internal/sim"
)

func TestSchemeMatrixSpecCoversRegistry(t *testing.T) {
	spec, err := SchemeMatrixSpec(nil, fastOpt(1))
	if err != nil {
		t.Fatal(err)
	}
	schemes := SchemeNames()
	want := len(schemes) * len(SchemeMatrixWorkloads()) * len(SchemeMatrixTopos())
	if len(spec.Cells) != want {
		t.Fatalf("%d cells, want %d (schemes × workloads × topos)", len(spec.Cells), want)
	}
	// Cell IDs are the golden-gate contract: scheme-matrix/scheme=S/wl=W/topo=T,
	// iterated scheme-major in sorted registry order.
	i := 0
	for _, s := range schemes {
		for _, wl := range SchemeMatrixWorkloads() {
			for _, tp := range SchemeMatrixTopos() {
				if got, want := spec.Cells[i].ID, SchemeMatrixCellID(s, wl, tp); got != want {
					t.Fatalf("cell %d ID %q, want %q", i, got, want)
				}
				i++
			}
		}
	}
}

func TestSchemeMatrixRejectsUnknownScheme(t *testing.T) {
	if _, err := SchemeMatrixSpec([]string{"nosuch"}, fastOpt(1)); err == nil {
		t.Fatal("unknown scheme accepted")
	}
	if _, err := SchemeMatrixSpec([]string{"presto:bogus=1"}, fastOpt(1)); err == nil {
		t.Fatal("bad param accepted")
	}
}

// TestNewSchemesSelectableByName pins the acceptance criterion: each
// of the four new policies resolves through SystemFor — with and
// without parameters — to a runnable system.
func TestNewSchemesSelectableByName(t *testing.T) {
	for _, spec := range []string{
		"diffflow", "diffflow:threshold=512KB,cell=32KB",
		"sprinklers", "sprinklers:min-stripe=128KB",
		"rdna-balance", "rdna-balance:isolated-frac=0.5",
		"spritz", "spritz:cell=32KB",
	} {
		sys, err := SystemFor(spec)
		if err != nil {
			t.Fatalf("SystemFor(%q): %v", spec, err)
		}
		if !strings.HasPrefix(spec, sys.SchemeName()) {
			t.Errorf("SystemFor(%q) resolved to scheme %q", spec, sys.SchemeName())
		}
	}
}

// TestSchemeMatrixRunsOneScheme executes a single-scheme slice of the
// matrix end to end: all three workloads on both topologies must
// produce results (throughput for elephants, FCT samples for mice
// workloads) on clos and mesh alike.
func TestSchemeMatrixRunsOneScheme(t *testing.T) {
	opt := Options{Seed: 1, Warmup: 5 * sim.Millisecond, Duration: 20 * sim.Millisecond}
	spec, err := SchemeMatrixSpec([]string{"diffflow"}, opt)
	if err != nil {
		t.Fatal(err)
	}
	spec.Seeds = campaign.Seeds(1, 1)
	rep, err := RunCampaign(spec)
	if err != nil {
		t.Fatal(err)
	}
	if failed := rep.FailedReplicas(); len(failed) > 0 {
		t.Fatalf("failed replicas: %v", failed)
	}
	for _, tp := range SchemeMatrixTopos() {
		if e, ok := rep.Envelope(SchemeMatrixCellID("diffflow", "elephants", tp), "tput_gbps"); !ok || e.Mean <= 0 {
			t.Errorf("elephants on %s: no throughput (%v, %v)", tp, e, ok)
		}
		for _, wl := range []string{"mice-heavy", "incast32"} {
			if e, ok := rep.Envelope(SchemeMatrixCellID("diffflow", wl, tp), "fct_ms_mean"); !ok || e.Mean <= 0 {
				t.Errorf("%s on %s: no FCT (%v, %v)", wl, tp, e, ok)
			}
		}
	}
}

package main

import (
	"bytes"
	"flag"
	"path/filepath"
	"testing"
)

var gateOut = flag.String("gate.out", "", "directory for the mini gate's campaign artifacts (default: a temporary directory)")

// TestGoldenGates runs the three campaign regression gates against their
// checked-in goldens, with the flags the goldens were generated with (a
// different flag changes the spec hash and the gate refuses to compare):
// the fig5 mini-campaign, the paper's §4/§6 workloads, and the scheme
// matrix over the registry. This is the one place those flags live; CI
// runs this test. Regenerate a golden after an intentional change by
// running the same arguments plus -update through cmd/experiments. It
// takes about 30 s on two cores, so -short and -race skip it.
func TestGoldenGates(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("full campaign runs: skipped under -short and -race")
	}
	out := *gateOut
	if out == "" {
		out = t.TempDir()
	}
	gates := []struct {
		golden string
		args   []string
	}{
		{"mini", []string{"-run", "fig5", "-seeds", "2", "-duration", "40ms", "-warmup", "10ms", "-format", "csv", "-out", out}},
		{"paper-workloads", []string{"-run", "fig13,fig14,fig15,fig16,table1,table2", "-seeds", "2", "-duration", "40ms", "-warmup", "10ms"}},
		{"scheme-matrix", []string{"-run", "scheme-matrix", "-scheme", "ecmp,presto,diffflow,sprinklers,rdna-balance,spritz", "-duration", "30ms", "-warmup", "10ms"}},
	}
	for _, g := range gates {
		t.Run(g.golden, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			args := append(g.args, "-gate", filepath.Join("testdata", "golden", g.golden+".json"))
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("experiments %v: exit code %d\n%s", args, code, stderr.String())
			}
			if stdout.Len() == 0 {
				t.Fatal("empty result document on stdout")
			}
		})
	}
}

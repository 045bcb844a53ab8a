package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"testing"
)

func TestNormalizeImportPath(t *testing.T) {
	cases := []struct{ in, want string }{
		{"presto/internal/sim", "presto/internal/sim"},
		{"presto/internal/campaign [presto/internal/campaign.test]", "presto/internal/campaign"},
		{"presto/internal/campaign.test", "presto/internal/campaign"},
		{"presto/internal/gro_test [presto/internal/gro.test]", "presto/internal/gro"},
		{"presto.test", "presto"},
	}
	for _, c := range cases {
		if got := NormalizeImportPath(c.in); got != c.want {
			t.Errorf("NormalizeImportPath(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestHarnessExempt(t *testing.T) {
	exempt := []string{
		"presto/cmd/capture",
		"presto/cmd/experiments [presto/cmd/experiments.test]",
		"presto/examples/groreorder",
		"presto/internal/campaign",
		"presto/internal/server",
		"presto/cmd/prestod",
		"presto/cmd/prestoctl [presto/cmd/prestoctl.test]",
		"badfixture/cmd/tool",
	}
	for _, p := range exempt {
		if !HarnessExempt(p) {
			t.Errorf("HarnessExempt(%q) = false, want true", p)
		}
	}
	notExempt := []string{
		"presto",
		"presto/internal/sim",
		"presto/internal/telemetry",
		"presto/internal/gro [presto/internal/gro.test]",
		"simcore",
	}
	for _, p := range notExempt {
		if HarnessExempt(p) {
			t.Errorf("HarnessExempt(%q) = true, want false", p)
		}
	}
}

func TestCollectSuppressions(t *testing.T) {
	src := `package p

func f() {
	//prestolint:allow wallclock -- profiling only
	_ = 1
	_ = 2 //prestolint:allow maporder,simtime
}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	sups := CollectSuppressions(fset, []*ast.File{f})
	if len(sups) != 2 {
		t.Fatalf("got %d suppressions, want 2: %+v", len(sups), sups)
	}
	first, second := sups[0], sups[1]
	if first.Line != 4 || len(first.Names) != 1 || first.Names[0] != "wallclock" {
		t.Errorf("first suppression = %+v, want line 4 names [wallclock]", first)
	}
	if first.Reason != "profiling only" {
		t.Errorf("first suppression reason = %q, want %q", first.Reason, "profiling only")
	}
	if second.Line != 6 || len(second.Names) != 2 ||
		second.Names[0] != "maporder" || second.Names[1] != "simtime" {
		t.Errorf("second suppression = %+v, want line 6 names [maporder simtime]", second)
	}
}

// TestMissingReasonDiagnostics checks that a bare //prestolint:allow
// (no "-- reason" tail) is itself reported as a diagnostic while a
// reasoned one is not.
func TestMissingReasonDiagnostics(t *testing.T) {
	src := `package p

func f() {
	//prestolint:allow wallclock -- profiling only
	_ = 1
	_ = 2 //prestolint:allow maporder,simtime
}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	diags := MissingReasonDiagnostics(fset, []*ast.File{f})
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want 1: %+v", len(diags), diags)
	}
	d := diags[0]
	if d.Analyzer != SuppressionAnalyzerName {
		t.Errorf("diagnostic analyzer = %q, want %q", d.Analyzer, SuppressionAnalyzerName)
	}
	if pos := fset.Position(d.Pos); pos.Line != 6 {
		t.Errorf("diagnostic at line %d, want 6", pos.Line)
	}
}

// TestObjectFacts checks the per-pass fact store analyzers use to
// summarize functions for interprocedural reasoning.
func TestObjectFacts(t *testing.T) {
	src := `package p

func g() {}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	info := NewTypesInfo()
	conf := types.Config{}
	tpkg, err := conf.Check("p", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatal(err)
	}
	pass := &Pass{Fset: fset, Files: []*ast.File{f}, Pkg: tpkg, TypesInfo: info}
	gObj := tpkg.Scope().Lookup("g")
	if gObj == nil {
		t.Fatal("lookup g failed")
	}
	if _, ok := pass.ObjectFact(gObj); ok {
		t.Error("ObjectFact before export reported ok")
	}
	type summary struct{ n int }
	pass.ExportObjectFact(gObj, summary{7})
	got, ok := pass.ObjectFact(gObj)
	if !ok || got.(summary).n != 7 {
		t.Errorf("ObjectFact = %v, %v; want {7}, true", got, ok)
	}
}

// TestReportRangef checks end positions flow into the diagnostic.
func TestReportRangef(t *testing.T) {
	src := `package p

func f() {}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	var diags []Diagnostic
	pass := &Pass{
		Analyzer: &Analyzer{Name: "demo"},
		Fset:     fset,
		diags:    &diags,
	}
	fn := f.Decls[0]
	pass.ReportRangef(fn, "whole decl")
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want 1", len(diags))
	}
	if diags[0].Pos != fn.Pos() || diags[0].End != fn.End() {
		t.Errorf("diagnostic range = (%v, %v), want (%v, %v)",
			diags[0].Pos, diags[0].End, fn.Pos(), fn.End())
	}
	pass.Reportf(fn.Pos(), "point")
	if diags[1].End != token.NoPos {
		t.Errorf("Reportf set End = %v, want NoPos", diags[1].End)
	}
}

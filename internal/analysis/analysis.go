// Package analysis is the core of prestolint, the repository's custom
// static-analysis suite. It is a small, dependency-free analogue of
// golang.org/x/tools/go/analysis built entirely on the standard
// library's go/ast and go/types: the build environment pins third-party
// modules but the determinism invariants the suite enforces (no wall
// clock in simulator code, no order-sensitive map iteration feeding
// results, nil-receiver-safe telemetry, no sim.Time/wall-time mixing)
// must be checkable offline with nothing but the Go toolchain.
//
// The shape mirrors go/analysis deliberately — an Analyzer holds a Run
// function over a Pass; diagnostics carry token positions — so the
// suite can be ported to the upstream framework mechanically if the
// dependency ever becomes available.
//
// An analyzer stays in the suite while a seeded mutation shows it
// catches what `go test -race -count=3` misses; an analyzer whose
// seeded mutations the tests already catch is deleted.
//
// # Suppressions
//
// A finding is suppressed by a comment on the same line or the line
// directly above it:
//
//	//prestolint:allow <name>[,<name>...] [-- reason]
//
// where <name> is an analyzer name (simclock, maporder, niltracer,
// simtime, lockorder, errdrop, hotalloc) or one of its aliases (e.g.
// "wallclock" for simclock). The "-- reason" tail is mandatory: a bare
// //prestolint:allow is itself reported as a diagnostic (see
// MissingReasonDiagnostics), because an exception that does not
// document why it is sound cannot be reviewed or retired.
// cmd/prestolint -suppressions lists every annotation in a tree so
// exceptions stay auditable, and -suppressions -budget enforces
// per-analyzer allow-counts so the exception list can only shrink
// without review.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and suppression
	// comments.
	Name string

	// Doc is a one-paragraph description of the invariant enforced.
	Doc string

	// Aliases are additional names accepted in //prestolint:allow
	// comments (e.g. "wallclock" suppresses simclock).
	Aliases []string

	// SkipPkg, if non-nil, reports whether the package with the given
	// (normalized) import path is exempt from this analyzer.
	SkipPkg func(importPath string) bool

	// SkipTestFiles excludes _test.go files from analysis. Used by
	// analyzers whose invariant protects result artifacts rather than
	// test diagnostics (e.g. maporder: t.Errorf ordering inside a test
	// loop is noise, not nondeterminism in results).
	SkipTestFiles bool

	// Run performs the analysis and reports findings via pass.Reportf.
	Run func(pass *Pass) error
}

// A Pass provides one analyzer with one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// ImportPath is the package path as reported by the build system
	// (already normalized; see NormalizeImportPath).
	ImportPath string

	diags *[]Diagnostic

	// Package-level facts (see ExportObjectFact). Facts never cross
	// package boundaries — the vettool's vetx files stay empty — but
	// within one package they let an analyzer summarize a function once
	// (the locks it acquires) and consult that summary from every call
	// site.
	objFacts map[types.Object]Fact
}

// A Fact is an analyzer-defined summary attached to a package-level
// object (usually a *types.Func). Facts are scoped to a single
// analyzer's Pass over a single package: they exist so an
// interprocedural analyzer (lockorder) can reason across the functions
// of one package without re-walking callee bodies at every call site.
type Fact any

// ExportObjectFact attaches fact to obj for the remainder of this pass.
// A second export for the same object overwrites the first.
func (p *Pass) ExportObjectFact(obj types.Object, fact Fact) {
	if obj == nil {
		return
	}
	if p.objFacts == nil {
		p.objFacts = make(map[types.Object]Fact)
	}
	p.objFacts[obj] = fact
}

// ObjectFact returns the fact attached to obj by ExportObjectFact, if
// any.
func (p *Pass) ObjectFact(obj types.Object) (Fact, bool) {
	f, ok := p.objFacts[obj]
	return f, ok
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// ReportRangef records a diagnostic spanning the node rng, carrying an
// end position so drivers (editors, the -json output) can highlight
// the whole construct rather than a single column.
func (p *Pass) ReportRangef(rng ast.Node, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      rng.Pos(),
		End:      rng.End(),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one finding. End is optional (token.NoPos when the
// analyzer reported a point position rather than a range).
type Diagnostic struct {
	Pos      token.Pos
	End      token.Pos
	Analyzer string
	Message  string
}

// A Package bundles the inputs shared by every analyzer run on it.
type Package struct {
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
	ImportPath string
}

// NewTypesInfo returns a types.Info with every map the analyzers
// consult populated, ready to pass to types.Config.Check.
func NewTypesInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}

// RunAnalyzers runs each analyzer over pkg (honoring SkipPkg and
// SkipTestFiles), drops suppressed findings, and returns the remainder
// sorted by position so output is deterministic regardless of analyzer
// registration or traversal order.
func RunAnalyzers(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	path := NormalizeImportPath(pkg.ImportPath)
	for _, az := range analyzers {
		if az.SkipPkg != nil && az.SkipPkg(path) {
			continue
		}
		files := pkg.Files
		if az.SkipTestFiles {
			files = nonTestFiles(pkg.Fset, files)
			if len(files) == 0 {
				continue
			}
		}
		pass := &Pass{
			Analyzer:   az,
			Fset:       pkg.Fset,
			Files:      files,
			Pkg:        pkg.Types,
			TypesInfo:  pkg.Info,
			ImportPath: path,
			diags:      &diags,
		}
		if err := az.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %w", az.Name, err)
		}
	}
	diags = filterSuppressed(pkg, analyzers, diags)
	diags = append(diags, MissingReasonDiagnostics(pkg.Fset, pkg.Files)...)
	SortDiagnostics(pkg.Fset, diags)
	return diags, nil
}

// SuppressionAnalyzerName labels diagnostics produced by the framework
// itself about malformed //prestolint:allow comments. It is not a
// runnable analyzer and cannot be suppressed.
const SuppressionAnalyzerName = "suppression"

// MissingReasonDiagnostics reports every //prestolint:allow comment in
// files that lacks the "-- reason" tail. A suppression is a standing
// exception to an invariant; one that does not document why the
// exception is sound is itself a defect, so the bare form is a
// diagnostic rather than a style nit.
func MissingReasonDiagnostics(fset *token.FileSet, files []*ast.File) []Diagnostic {
	var out []Diagnostic
	for _, s := range CollectSuppressions(fset, files) {
		if s.Reason == "" {
			out = append(out, Diagnostic{
				Pos:      s.Pos,
				Analyzer: SuppressionAnalyzerName,
				Message:  "//prestolint:allow without a '-- reason' tail: every suppression must document why the exception is sound",
			})
		}
	}
	return out
}

// SortDiagnostics orders diags by (file, line, column, analyzer,
// message).
func SortDiagnostics(fset *token.FileSet, diags []Diagnostic) {
	sort.SliceStable(diags, func(i, j int) bool {
		pi, pj := fset.Position(diags[i].Pos), fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		if diags[i].Analyzer != diags[j].Analyzer {
			return diags[i].Analyzer < diags[j].Analyzer
		}
		return diags[i].Message < diags[j].Message
	})
}

func nonTestFiles(fset *token.FileSet, files []*ast.File) []*ast.File {
	var out []*ast.File
	for _, f := range files {
		if !strings.HasSuffix(fset.Position(f.Pos()).Filename, "_test.go") {
			out = append(out, f)
		}
	}
	return out
}

// NormalizeImportPath strips the decorations the build system adds to
// package paths so exemption matching sees the underlying package:
// the " [pkg.test]" test-variant suffix, the synthesized ".test" test
// main, and the "_test" external-test package suffix.
func NormalizeImportPath(path string) string {
	if i := strings.Index(path, " ["); i >= 0 {
		path = path[:i]
	}
	path = strings.TrimSuffix(path, ".test")
	path = strings.TrimSuffix(path, "_test")
	return path
}

// HarnessExempt reports whether importPath belongs to the harness
// layer, which legitimately touches the wall clock: command-line
// drivers (cmd/*), runnable examples (examples/*), the campaign
// runner (internal/campaign), which times replicas and enforces
// wall-clock timeouts around the deterministic core, and the serving
// layer (internal/server), which stamps job lifecycles, TTL-expires
// artifacts, and measures HTTP request latencies for /metrics.
func HarnessExempt(importPath string) bool {
	for _, seg := range strings.Split(NormalizeImportPath(importPath), "/") {
		switch seg {
		case "cmd", "examples", "campaign", "server":
			return true
		}
	}
	return false
}

// A Suppression is one parsed //prestolint:allow comment.
type Suppression struct {
	Pos    token.Pos
	Line   int // line the suppression applies to (the comment's line)
	File   string
	Names  []string
	Reason string
}

const allowPrefix = "prestolint:allow"

// CollectSuppressions parses every //prestolint:allow comment in files.
func CollectSuppressions(fset *token.FileSet, files []*ast.File) []Suppression {
	var out []Suppression
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, allowPrefix) {
					continue
				}
				rest := strings.TrimSpace(strings.TrimPrefix(text, allowPrefix))
				var reason string
				if i := strings.Index(rest, "--"); i >= 0 {
					reason = strings.TrimSpace(rest[i+2:])
					rest = strings.TrimSpace(rest[:i])
				}
				names := strings.FieldsFunc(rest, func(r rune) bool {
					return r == ',' || r == ' ' || r == '\t'
				})
				pos := fset.Position(c.Pos())
				out = append(out, Suppression{
					Pos:    c.Pos(),
					Line:   pos.Line,
					File:   pos.Filename,
					Names:  names,
					Reason: reason,
				})
			}
		}
	}
	return out
}

// filterSuppressed drops diagnostics that have a matching
// //prestolint:allow comment on their line or the line directly above.
func filterSuppressed(pkg *Package, analyzers []*Analyzer, diags []Diagnostic) []Diagnostic {
	sups := CollectSuppressions(pkg.Fset, pkg.Files)
	if len(sups) == 0 {
		return diags
	}
	aliases := make(map[string]string) // accepted token -> analyzer name
	for _, az := range analyzers {
		aliases[az.Name] = az.Name
		for _, a := range az.Aliases {
			aliases[a] = az.Name
		}
	}
	type key struct {
		file string
		line int
		name string
	}
	allowed := make(map[key]bool)
	for _, s := range sups {
		for _, n := range s.Names {
			name, ok := aliases[n]
			if !ok {
				continue
			}
			allowed[key{s.File, s.Line, name}] = true
			allowed[key{s.File, s.Line + 1, name}] = true
		}
	}
	kept := diags[:0]
	for _, d := range diags {
		pos := pkg.Fset.Position(d.Pos)
		if !allowed[key{pos.Filename, pos.Line, d.Analyzer}] {
			kept = append(kept, d)
		}
	}
	return kept
}

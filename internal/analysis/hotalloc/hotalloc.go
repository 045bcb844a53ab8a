// Package hotalloc makes zero-allocation invariants compile-time
// checkable: a function marked //prestolint:noalloc may not contain
// heap-escaping constructs.
//
// The repository's hot paths — the event engine's Schedule/dispatch,
// the Presto GRO flush walk, the tracer's at-limit emit — are pinned at
// 0 allocations by testing.AllocsPerRun tests next to the code
// (TestEngineScheduleDispatchAllocs, TestTimerResetAllocs,
// TestPrestoFlushHoldSteadyStateAllocs, TestTracerDropEmitAllocs).
// Those tests catch a regression only for the inputs they exercise;
// this analyzer rejects the constructs that cause such regressions at
// vet time:
//
//   - variable-capturing closures (the closure header escapes)
//   - implicit interface conversions of non-pointer values (boxing)
//   - fmt calls (format state, boxed arguments)
//   - append through a bare slice (may grow; append through an explicit
//     reslice like buf[:0], or a variable assigned from one, is the
//     sanctioned reuse idiom)
//   - map/slice composite literals, make, new, &composite{} (runtime
//     allocations)
//   - string concatenation and string<->[]byte conversions
//
// The check is syntactic and intentionally stricter than the escape
// analyzer: a construct the compiler happens to optimize today still
// reads as an allocation hazard tomorrow. Amortized growth paths that
// are tested at 0 allocations in steady state (arena/heap high-water
// growth) take //prestolint:allow hotalloc -- reason.
package hotalloc

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"presto/internal/analysis"
)

// Annotation marks a function whose body must be free of
// heap-escaping constructs.
const Annotation = "prestolint:noalloc"

// Analyzer is the hotalloc analyzer.
var Analyzer = &analysis.Analyzer{
	Name:    "hotalloc",
	Aliases: []string{"noalloc"},
	Doc: "forbid heap-escaping constructs (capturing closures, interface boxing, " +
		"fmt, growing append, map/slice literals, make/new, string building) in " +
		"functions annotated //prestolint:noalloc, so the paths the AllocsPerRun " +
		"tests pin at 0 allocations are enforced at vet time, not just at test time",
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !annotated(fd) {
				continue
			}
			c := &checker{pass: pass, reuse: reuseSlices(pass, fd.Body)}
			c.check(fd.Body, fd.Type)
		}
	}
	return nil
}

// annotated reports whether fd carries the //prestolint:noalloc
// directive in its doc comment.
func annotated(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if strings.HasPrefix(text, Annotation) {
			return true
		}
	}
	return false
}

// reuseSlices collects variables assigned from a slice expression
// anywhere in body (kept := buf[:0] and the like): appending through
// them is the sanctioned backing-array reuse idiom.
func reuseSlices(pass *analysis.Pass, body *ast.BlockStmt) map[types.Object]bool {
	out := make(map[types.Object]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, rhs := range assign.Rhs {
			if _, ok := rhs.(*ast.SliceExpr); !ok {
				continue
			}
			if i >= len(assign.Lhs) {
				break
			}
			id, ok := assign.Lhs[i].(*ast.Ident)
			if !ok {
				continue
			}
			if obj := pass.TypesInfo.Defs[id]; obj != nil {
				out[obj] = true
			} else if obj := pass.TypesInfo.Uses[id]; obj != nil {
				out[obj] = true
			}
		}
		return true
	})
	return out
}

// checker walks one annotated function body. sig is the innermost
// function type, for return-statement conversion checks.
type checker struct {
	pass  *analysis.Pass
	reuse map[types.Object]bool
}

func (c *checker) check(body *ast.BlockStmt, ftyp *ast.FuncType) {
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if caps := c.captures(n); len(caps) > 0 {
				c.pass.ReportRangef(n,
					"noalloc function builds a variable-capturing closure (captures %s): the closure and its captures escape to the heap; hoist it to a method or bind state in a struct (or //prestolint:allow hotalloc -- reason)",
					strings.Join(caps, ", "))
			}
			// Still check the literal's body: it runs as part of this
			// hot path when invoked.
			c.check(n.Body, n.Type)
			return false
		case *ast.CallExpr:
			c.call(n)
		case *ast.CompositeLit:
			c.composite(n)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := n.X.(*ast.CompositeLit); ok {
					c.pass.ReportRangef(n,
						"noalloc function heap-allocates a composite literal with &: hoist it out of the hot path (or //prestolint:allow hotalloc -- reason)")
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD {
				tv, ok := c.pass.TypesInfo.Types[n]
				if ok && tv.Value == nil && isString(tv.Type) {
					c.pass.ReportRangef(n,
						"noalloc function concatenates strings: + builds a fresh string on the heap (or //prestolint:allow hotalloc -- reason)")
				}
			}
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if i < len(n.Lhs) {
					c.conversion(rhs, c.typeOf(n.Lhs[i]))
				}
			}
		case *ast.ValueSpec:
			if n.Type != nil {
				target := c.pass.TypesInfo.Types[n.Type].Type
				for _, v := range n.Values {
					c.conversion(v, target)
				}
			}
		case *ast.ReturnStmt:
			if ftyp.Results != nil {
				var results []types.Type
				for _, f := range ftyp.Results.List {
					t := c.pass.TypesInfo.Types[f.Type].Type
					reps := len(f.Names)
					if reps == 0 {
						reps = 1
					}
					for i := 0; i < reps; i++ {
						results = append(results, t)
					}
				}
				if len(results) == len(n.Results) {
					for i, r := range n.Results {
						c.conversion(r, results[i])
					}
				}
			}
		}
		return true
	}
	ast.Inspect(body, walk)
}

// captures returns the names of variables lit references that are
// declared outside it (and are not package-level).
func (c *checker) captures(lit *ast.FuncLit) []string {
	seen := make(map[types.Object]bool)
	var names []string
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := c.pass.TypesInfo.Uses[id].(*types.Var)
		if !ok || v.IsField() || seen[v] {
			return true
		}
		if c.pass.Pkg != nil && v.Parent() == c.pass.Pkg.Scope() {
			return true // package-level: no capture needed
		}
		if v.Pos() >= lit.Pos() && v.Pos() < lit.End() {
			return true // the literal's own params/locals
		}
		seen[v] = true
		names = append(names, v.Name())
		return true
	})
	return names
}

// call classifies one call expression: builtin, conversion, fmt, or a
// regular call whose interface parameters box concrete arguments.
func (c *checker) call(call *ast.CallExpr) {
	tv, ok := c.pass.TypesInfo.Types[call.Fun]
	if ok && tv.IsType() {
		c.conversionCall(call, tv.Type)
		return
	}
	if id, ok := unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := c.pass.TypesInfo.Uses[id].(*types.Builtin); ok {
			c.builtin(call, b.Name())
			return
		}
	}
	if fn := calleeFunc(c.pass, call); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
		c.pass.ReportRangef(call,
			"noalloc function calls fmt.%s: fmt boxes its arguments and allocates format state; use strconv into a reused buffer off the hot path (or //prestolint:allow hotalloc -- reason)",
			fn.Name())
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var param types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // spread: the slice passes through unboxed
			}
			param = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			param = params.At(i).Type()
		default:
			continue
		}
		c.conversion(arg, param)
	}
}

// builtin checks append/make/new.
func (c *checker) builtin(call *ast.CallExpr, name string) {
	switch name {
	case "append":
		if len(call.Args) == 0 {
			return
		}
		if c.isReuseTarget(call.Args[0]) {
			return
		}
		c.pass.ReportRangef(call,
			"noalloc function appends through a bare slice: growth reallocates the backing array; append through an explicit reslice (buf[:0]) of a preallocated buffer (or //prestolint:allow hotalloc -- reason)")
	case "make":
		c.pass.ReportRangef(call,
			"noalloc function calls make: allocate the buffer once outside the hot path and reuse it (or //prestolint:allow hotalloc -- reason)")
	case "new":
		c.pass.ReportRangef(call,
			"noalloc function calls new: heap allocation on the hot path (or //prestolint:allow hotalloc -- reason)")
	}
}

// isReuseTarget reports whether the first append argument is an
// explicit reslice or a variable assigned from one.
func (c *checker) isReuseTarget(e ast.Expr) bool {
	switch e := unparen(e).(type) {
	case *ast.SliceExpr:
		return true
	case *ast.Ident:
		if obj := c.pass.TypesInfo.Uses[e]; obj != nil && c.reuse[obj] {
			return true
		}
	}
	return false
}

// composite flags map and slice literals (runtime allocations); array
// and struct literals are value constructions and pass.
func (c *checker) composite(lit *ast.CompositeLit) {
	tv, ok := c.pass.TypesInfo.Types[lit]
	if !ok {
		return
	}
	switch tv.Type.Underlying().(type) {
	case *types.Map:
		c.pass.ReportRangef(lit,
			"noalloc function builds a map literal: map construction allocates; hoist it to initialization (or //prestolint:allow hotalloc -- reason)")
	case *types.Slice:
		c.pass.ReportRangef(lit,
			"noalloc function builds a slice literal: the backing array allocates; hoist it to initialization (or //prestolint:allow hotalloc -- reason)")
	}
}

// conversionCall checks an explicit conversion T(x).
func (c *checker) conversionCall(call *ast.CallExpr, target types.Type) {
	if len(call.Args) != 1 {
		return
	}
	arg := call.Args[0]
	argTV, ok := c.pass.TypesInfo.Types[arg]
	if !ok {
		return
	}
	if isString(target) && isByteOrRuneSlice(argTV.Type) && argTV.Value == nil {
		c.pass.ReportRangef(call,
			"noalloc function converts []byte/[]rune to string: the conversion copies to the heap (or //prestolint:allow hotalloc -- reason)")
		return
	}
	if isByteOrRuneSlice(target) && isString(argTV.Type) && argTV.Value == nil {
		c.pass.ReportRangef(call,
			"noalloc function converts string to []byte/[]rune: the conversion copies to the heap (or //prestolint:allow hotalloc -- reason)")
		return
	}
	c.conversion(arg, target)
}

// conversion flags value -> interface boxing: converting a non-pointer
// concrete value to an interface type allocates.
func (c *checker) conversion(e ast.Expr, target types.Type) {
	if target == nil || !types.IsInterface(target) {
		return
	}
	tv, ok := c.pass.TypesInfo.Types[e]
	if !ok || tv.Type == nil {
		return
	}
	if tv.Value != nil {
		return // constants box to static interface data
	}
	if types.IsInterface(tv.Type) || pointerShaped(tv.Type) || isUntypedNil(tv.Type) {
		return
	}
	c.pass.ReportRangef(e,
		"noalloc function converts %s to interface %s: boxing a non-pointer value allocates (or //prestolint:allow hotalloc -- reason)",
		types.TypeString(tv.Type, types.RelativeTo(c.pass.Pkg)),
		types.TypeString(target, types.RelativeTo(c.pass.Pkg)))
}

func (c *checker) typeOf(e ast.Expr) types.Type {
	if tv, ok := c.pass.TypesInfo.Types[e]; ok {
		return tv.Type
	}
	if id, ok := e.(*ast.Ident); ok {
		if obj := c.pass.TypesInfo.Uses[id]; obj != nil {
			return obj.Type()
		}
		if obj := c.pass.TypesInfo.Defs[id]; obj != nil {
			return obj.Type()
		}
	}
	return nil
}

func calleeFunc(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = pass.TypesInfo.Uses[fun]
	case *ast.SelectorExpr:
		obj = pass.TypesInfo.Uses[fun.Sel]
	default:
		return nil
	}
	fn, _ := obj.(*types.Func)
	return fn
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isUntypedNil(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Kind() == types.UntypedNil
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune || b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

// pointerShaped reports whether values of t fit in an interface's data
// word without boxing: pointers, channels, maps, funcs, and
// unsafe.Pointer.
func pointerShaped(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	}
	return false
}

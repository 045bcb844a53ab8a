// Package errdrop flags discarded error returns from the resource- and
// data-integrity-critical function families: flush, close, spill,
// encode, write, and sync.
//
// This is errcheck narrowed to the class that actually bit this
// repository: a crash while finalizing a trace file came from a flush
// error whose only signal was a return value nobody looked at. A dropped error
// from Close/Flush/Sync means acknowledged data loss (buffered bytes
// that never reached the file); from Encode/Write it means a truncated
// artifact that downstream tooling will half-parse.
//
// A call statement, `defer`, or `go` that ignores such a function's
// error is reported. Assigning the error away explicitly (`_ = f.Close()`)
// is accepted — it is greppable and visibly deliberate — as are the
// never-failing writers bytes.Buffer and strings.Builder. Sites where
// the drop is sound (e.g. closing a read-only file on an error path)
// take //prestolint:allow errdrop -- reason.
package errdrop

import (
	"go/ast"
	"go/types"
	"strings"

	"presto/internal/analysis"
)

// Analyzer is the errdrop analyzer.
var Analyzer = &analysis.Analyzer{
	Name:    "errdrop",
	Aliases: []string{"errcheck"},
	Doc: "flag discarded error returns from flush/close/spill/encode/write/sync " +
		"functions — a dropped flush or close error is " +
		"acknowledged data loss",
	SkipTestFiles: true,
	Run:           run,
}

// watchedPrefixes are the (lowercased) name prefixes whose error
// returns must be consumed.
var watchedPrefixes = []string{"flush", "close", "spill", "encode", "write", "sync"}

// neverFails lists receiver types (as "pkgpath.TypeName") whose
// watched methods are documented to always return a nil error.
var neverFails = map[string]bool{
	"bytes.Buffer":    true,
	"strings.Builder": true,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.ExprStmt:
				if call, ok := st.X.(*ast.CallExpr); ok {
					check(pass, call, "")
				}
			case *ast.DeferStmt:
				check(pass, st.Call, "defer ")
			case *ast.GoStmt:
				check(pass, st.Call, "go ")
			}
			return true
		})
	}
	return nil
}

// check reports call if it discards a watched function's error.
func check(pass *analysis.Pass, call *ast.CallExpr, how string) {
	fn := callee(pass, call)
	if fn == nil {
		return
	}
	name := fn.Name()
	if !watchedName(name) {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || !lastResultIsError(sig) {
		return
	}
	if recv := sig.Recv(); recv != nil && isNeverFailing(recv.Type()) {
		return
	}
	pass.ReportRangef(call,
		"discarded error from %s%s: a dropped %s error is silent data loss (handle it, assign to _ explicitly, or //prestolint:allow errdrop -- reason)",
		how, name, familyOf(name))
}

func callee(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := call.Fun.(type) {
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

func watchedName(name string) bool {
	lower := strings.ToLower(name)
	for _, p := range watchedPrefixes {
		if strings.HasPrefix(lower, p) {
			return true
		}
	}
	return false
}

// familyOf returns the watched family a name belongs to, for the
// diagnostic text.
func familyOf(name string) string {
	lower := strings.ToLower(name)
	for _, p := range watchedPrefixes {
		if strings.HasPrefix(lower, p) {
			return p
		}
	}
	return "error"
}

var errorIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

func lastResultIsError(sig *types.Signature) bool {
	res := sig.Results()
	if res.Len() == 0 {
		return false
	}
	return types.Implements(res.At(res.Len()-1).Type(), errorIface)
}

// isNeverFailing reports whether t (the method receiver) is one of the
// stdlib types whose Write/WriteString/etc. errors are documented to
// always be nil.
func isNeverFailing(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	key := named.Obj().Pkg().Path() + "." + named.Obj().Name()
	return neverFails[key]
}

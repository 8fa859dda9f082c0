// Package hotpathalloc enforces the zero-allocation contract of PR 2 on
// codec and crypto hot paths.
//
// The contract functions are identified by naming convention — Append*
// / append* (append-style encoders writing into a caller buffer),
// *Into (HashInto-style helpers filling caller storage), EncodedSize,
// and the batch dispatch drain/verify functions (VerifyBatch, popBatch)
// — plus any function opted in explicitly with a //faustlint:hotpath
// marker comment, as the dispatcher's loop and batch body are. Inside a contract function the
// analyzer flags the allocation patterns that have crept into hot paths
// before:
//
//   - calls into package fmt (Sprintf/Errorf/...) — every call
//     allocates for the format machinery and boxes its operands
//   - make() of a slice or map — a fresh allocation per call; encoders
//     must write into the caller's buffer instead
//   - string<->[]byte conversions, which copy
//   - boxing: passing a concrete value to a variadic ...interface{}
//     parameter
//
// One idiom is exempt: append(buf, make([]byte, n)...) — the compiler
// recognizes the spread and extends buf in place without materializing
// the temporary, so it is the sanctioned way to zero-extend a buffer.
// Error paths that genuinely need formatting carry a justified
// //faustlint:ignore hotpathalloc directive.
package hotpathalloc

import (
	"go/ast"
	"go/types"
	"regexp"

	"golang.org/x/tools/go/analysis"

	"faust/tools/faustlint/internal/directive"
)

// Analyzer is the hotpathalloc analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "hotpathalloc",
	Doc:  "flags allocations (fmt, make, string conversions, interface boxing) in zero-alloc contract functions",
	Run:  run,
}

var _ = directive.Register(Analyzer.Name)

// contractName matches function names bound to the zero-alloc contract.
// Beyond the codec conventions (Append*, *Into, EncodedSize), the batch
// dispatch pipeline of PR 10 binds its per-batch drain/verify functions
// by exact name: these run once per dispatched batch at full load, so a
// stray allocation multiplies by the op rate just like a codec miss.
var contractName = regexp.MustCompile(`(?i)^(append.+|.+into|encodedsize|verifybatch|popbatch)$`)

func run(pass *analysis.Pass) (interface{}, error) {
	dp := directive.New(pass)
	marked := directive.HotpathFuncs(pass.Fset, pass.Files)

	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if !contractName.MatchString(fd.Name.Name) && !marked[fd] {
				continue
			}
			checkFunc(dp, pass, fd)
		}
	}
	return nil, nil
}

func checkFunc(dp *directive.Pass, pass *analysis.Pass, fd *ast.FuncDecl) {
	// exemptMake collects make() calls in the sanctioned
	// append(buf, make([]byte, n)...) spread position.
	exemptMake := map[*ast.CallExpr]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Ellipsis == 0 || len(call.Args) == 0 {
			return true
		}
		if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "append" && pass.TypesInfo.Uses[id] == types.Universe.Lookup("append") {
			if mk, ok := call.Args[len(call.Args)-1].(*ast.CallExpr); ok && isBuiltin(pass, mk.Fun, "make") {
				exemptMake[mk] = true
			}
		}
		return true
	})

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // closures run outside the contract body
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}

		// make([]T, ...) / make(map...) outside the append-spread idiom.
		if isBuiltin(pass, call.Fun, "make") && !exemptMake[call] {
			if tv, ok := pass.TypesInfo.Types[call]; ok {
				switch tv.Type.Underlying().(type) {
				case *types.Slice, *types.Map:
					dp.Reportf(call.Pos(),
						"make() allocates on the %s hot path; write into the caller's buffer (append(buf, make([]byte, n)...) is the sanctioned zero-extend)",
						fd.Name.Name)
				}
			}
			return true
		}

		// string <-> []byte conversion: a copy per call.
		if tv, ok := pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
			if isStringByteConv(pass, tv.Type, call.Args[0]) {
				dp.Reportf(call.Pos(),
					"string/[]byte conversion copies on the %s hot path; keep one representation end to end",
					fd.Name.Name)
			}
			return true
		}

		// Calls into package fmt allocate unconditionally.
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			if fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
				dp.Reportf(call.Pos(),
					"fmt.%s allocates on the %s hot path; zero-alloc contract functions must not format",
					fn.Name(), fd.Name.Name)
				return true
			}
		}

		// Boxing: concrete values passed to a variadic ...interface{}.
		checkBoxing(dp, pass, fd, call)
		return true
	})
}

// checkBoxing flags concrete (non-interface) arguments spread into a
// variadic interface parameter — each one is boxed into an allocation.
func checkBoxing(dp *directive.Pass, pass *analysis.Pass, fd *ast.FuncDecl, call *ast.CallExpr) {
	tv, ok := pass.TypesInfo.Types[call.Fun]
	if !ok || tv.Type == nil {
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok || !sig.Variadic() || call.Ellipsis != 0 {
		return
	}
	last := sig.Params().At(sig.Params().Len() - 1)
	slice, ok := last.Type().(*types.Slice)
	if !ok {
		return
	}
	if _, ok := slice.Elem().Underlying().(*types.Interface); !ok {
		return
	}
	for i := sig.Params().Len() - 1; i < len(call.Args); i++ {
		argTV, ok := pass.TypesInfo.Types[call.Args[i]]
		if !ok || argTV.Type == nil || argTV.IsNil() {
			continue
		}
		if _, isIface := argTV.Type.Underlying().(*types.Interface); isIface {
			continue
		}
		if isPointerShaped(argTV.Type) {
			// Pointers (and chan/map/func values) are stored directly in
			// the interface word — the conversion never allocates.
			continue
		}
		dp.Reportf(call.Args[i].Pos(),
			"passing %s to a variadic interface parameter boxes it (allocation) on the %s hot path",
			argTV.Type.String(), fd.Name.Name)
	}
}

// isPointerShaped reports whether values of t fit the interface data
// word without boxing: pointers, channels, maps, funcs and
// unsafe.Pointer are stored directly by the runtime.
func isPointerShaped(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return t.Underlying().(*types.Basic).Kind() == types.UnsafePointer
	}
	return false
}

func isBuiltin(pass *analysis.Pass, fun ast.Expr, name string) bool {
	id, ok := ast.Unparen(fun).(*ast.Ident)
	return ok && id.Name == name && pass.TypesInfo.Uses[id] == types.Universe.Lookup(name)
}

// isStringByteConv reports whether converting arg to target crosses the
// string/[]byte boundary (both directions copy).
func isStringByteConv(pass *analysis.Pass, target types.Type, arg ast.Expr) bool {
	argTV, ok := pass.TypesInfo.Types[arg]
	if !ok || argTV.Type == nil {
		return false
	}
	return (isString(target) && isByteSlice(argTV.Type)) ||
		(isByteSlice(target) && isString(argTV.Type))
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

// Package lockheldio flags calls that can block on network or disk I/O
// made while a sync.Mutex or sync.RWMutex is held.
//
// It machine-checks the locking discipline PR 5 established for the
// fail-aware stack: state locks guard in-memory structures and pointer
// swaps only ("wmu serializes writers; reads traverse immutable
// snapshots") — an fsync or a network round trip under a state lock
// turns every reader into a tail-latency hostage of the slowest disk
// or peer.
//
// Blocking calls are recognized by a curated matcher set:
//
//   - any function or method of package net (conn reads/writes, dials)
//   - (*os.File).Sync — fsync, the expensive disk barrier — and methods
//     named Sync on interface types: the same barrier behind a seam, such
//     as the store's file handles
//   - methods named PutBlob or GetBlob (the transport.BlobStore and
//     BlobChannel contract)
//   - methods named Send or Recv on interface types or on types
//     declared in a transport package
//
// Locks whose final name marks them as I/O-serialization locks — wmu,
// flushMu, writeMu, connMu, sendMu, ioMu — are exempt: serializing
// writers across the I/O is their entire purpose, and naming them so is
// part of the checked convention. A state lock that must legitimately
// span I/O can be annotated with //faustlint:ignore lockheldio <why>.
//
// The analysis is intraprocedural and statement-ordered: within each
// function body it tracks Lock/RLock acquisitions per lock expression,
// treats a deferred Unlock as holding the lock for the rest of the
// function, analyzes branches with a copy of the held set (joining
// conservatively: a lock is released after a branch only if every
// rejoining path released it), and reports any blocking call made while
// a non-exempt lock is held.
package lockheldio

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"

	"faust/tools/faustlint/internal/directive"
)

// Analyzer is the lockheldio analyzer.
var Analyzer = &analysis.Analyzer{
	Name:     "lockheldio",
	Doc:      "flags network/disk I/O performed while a state mutex is held (PR 5: locks guard memory, not I/O)",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

var _ = directive.Register(Analyzer.Name)

// serializationLock matches mutex names whose convention marks them as
// I/O-serialization locks, exempt from this check.
var serializationLock = regexp.MustCompile(`(?i)^(w|write|flush|conn|send|io)mu$`)

func run(pass *analysis.Pass) (interface{}, error) {
	dp := directive.New(pass)
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)

	ins.Preorder([]ast.Node{(*ast.FuncDecl)(nil), (*ast.FuncLit)(nil)}, func(n ast.Node) {
		var body *ast.BlockStmt
		switch fn := n.(type) {
		case *ast.FuncDecl:
			body = fn.Body
		case *ast.FuncLit:
			body = fn.Body
		}
		if body == nil {
			return
		}
		a := &funcAnalysis{pass: pass, dp: dp}
		a.block(body, newHeldSet())
	})
	return nil, nil
}

// heldSet maps a lock expression's printed form ("b.mu") to the
// position where it was acquired.
type heldSet map[string]token.Pos

func newHeldSet() heldSet { return heldSet{} }

func (h heldSet) clone() heldSet {
	c := make(heldSet, len(h))
	for k, v := range h {
		c[k] = v
	}
	return c
}

// intersect keeps only locks held in both sets (conservative join after
// branching control flow).
func (h heldSet) intersect(other heldSet) heldSet {
	out := newHeldSet()
	for k, v := range h {
		if _, ok := other[k]; ok {
			out[k] = v
		}
	}
	return out
}

type funcAnalysis struct {
	pass *analysis.Pass
	dp   *directive.Pass
}

// block runs the statement-ordered analysis over a statement list and
// returns the held set at its end. Nested function literals are handled
// by the top-level Preorder walk, not here.
func (a *funcAnalysis) block(b *ast.BlockStmt, held heldSet) heldSet {
	return a.stmts(b.List, held)
}

func (a *funcAnalysis) stmts(list []ast.Stmt, held heldSet) heldSet {
	for _, s := range list {
		held = a.stmt(s, held)
	}
	return held
}

// terminates reports whether a statement list ends by leaving the
// enclosing flow (return, panic-ish call, goto, break, continue).
func terminates(list []ast.Stmt) bool {
	if len(list) == 0 {
		return false
	}
	switch last := list[len(list)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}

func (a *funcAnalysis) stmt(s ast.Stmt, held heldSet) heldSet {
	switch st := s.(type) {
	case *ast.ExprStmt:
		a.checkExpr(st.X, held)
		held = a.applyLockOps(st.X, held, false)
	case *ast.DeferStmt:
		// A deferred Unlock keeps the lock held for the rest of the
		// function; a deferred Lock (rare) is ignored. Blocking calls
		// inside the deferred call run at return time, when the lock may
		// already be released — skip them.
		held = a.applyLockOps(st.Call, held, true)
	case *ast.AssignStmt:
		for _, rhs := range st.Rhs {
			a.checkExpr(rhs, held)
		}
	case *ast.ReturnStmt:
		for _, r := range st.Results {
			a.checkExpr(r, held)
		}
	case *ast.IfStmt:
		if st.Init != nil {
			held = a.stmt(st.Init, held)
		}
		a.checkExpr(st.Cond, held)
		thenOut := a.block(st.Body, held.clone())
		thenTerm := terminates(st.Body.List)
		// With no else, the fall-through path carries the pre-if set.
		elseOut, elseTerm := held, false
		switch e := st.Else.(type) {
		case *ast.BlockStmt:
			elseOut = a.block(e, held.clone())
			elseTerm = terminates(e.List)
		case *ast.IfStmt:
			elseOut = a.stmt(e, held.clone())
		}
		// Join only the paths that rejoin the flow after the if: a
		// branch that returns/panics contributes nothing.
		switch {
		case thenTerm && elseTerm:
			return held
		case thenTerm:
			return elseOut
		case elseTerm:
			return thenOut
		default:
			return thenOut.intersect(elseOut)
		}
	case *ast.ForStmt:
		if st.Init != nil {
			held = a.stmt(st.Init, held)
		}
		if st.Cond != nil {
			a.checkExpr(st.Cond, held)
		}
		a.block(st.Body, held.clone())
		return held
	case *ast.RangeStmt:
		a.checkExpr(st.X, held)
		a.block(st.Body, held.clone())
		return held
	case *ast.SwitchStmt:
		if st.Init != nil {
			held = a.stmt(st.Init, held)
		}
		if st.Tag != nil {
			a.checkExpr(st.Tag, held)
		}
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				a.stmts(cc.Body, held.clone())
			}
		}
		return held
	case *ast.TypeSwitchStmt:
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				a.stmts(cc.Body, held.clone())
			}
		}
		return held
	case *ast.SelectStmt:
		for _, c := range st.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				a.stmts(cc.Body, held.clone())
			}
		}
		return held
	case *ast.BlockStmt:
		return a.block(st, held)
	case *ast.GoStmt:
		// The goroutine runs concurrently; the spawning function's locks
		// are not held inside it (and FuncLit bodies are analyzed
		// separately).
	case *ast.LabeledStmt:
		return a.stmt(st.Stmt, held)
	}
	return held
}

// applyLockOps updates the held set for Lock/Unlock calls in expr.
// When deferred, Unlocks are ignored (the lock stays held until
// return) and Locks are ignored too.
func (a *funcAnalysis) applyLockOps(expr ast.Expr, held heldSet, deferred bool) heldSet {
	call, ok := expr.(*ast.CallExpr)
	if !ok {
		return held
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return held
	}
	if !a.isMutexReceiver(sel.X) {
		return held
	}
	key := types.ExprString(sel.X)
	switch sel.Sel.Name {
	case "Lock", "RLock":
		if !deferred {
			held[key] = call.Pos()
		}
	case "Unlock", "RUnlock":
		if !deferred {
			delete(held, key)
		}
	}
	return held
}

// isMutexReceiver reports whether expr has type sync.Mutex/sync.RWMutex
// (possibly behind a pointer).
func (a *funcAnalysis) isMutexReceiver(expr ast.Expr) bool {
	tv, ok := a.pass.TypesInfo.Types[expr]
	if !ok {
		return false
	}
	t := tv.Type
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// lockName extracts the final identifier of a lock key ("b.mu" → "mu").
func lockName(key string) string {
	if i := strings.LastIndexByte(key, '.'); i >= 0 {
		return key[i+1:]
	}
	return key
}

// checkExpr reports blocking calls inside expr while non-exempt locks
// are held. It walks nested expressions but not function literals.
func (a *funcAnalysis) checkExpr(expr ast.Expr, held heldSet) {
	if len(held) == 0 {
		return
	}
	ast.Inspect(expr, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		what := a.blockingCall(call)
		if what == "" {
			return true
		}
		for key, lockPos := range held {
			if serializationLock.MatchString(lockName(key)) {
				continue
			}
			a.dp.Reportf(call.Pos(),
				"%s can block on I/O while mutex %s is held (locked at %s); narrow the critical section or use a dedicated wmu-style serialization lock",
				what, key, a.pass.Fset.Position(lockPos))
		}
		return true
	})
}

// blockingCall classifies a call as possibly blocking on network or
// disk, returning a description or "".
func (a *funcAnalysis) blockingCall(call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	obj := a.pass.TypesInfo.Uses[sel.Sel]
	if obj == nil {
		return ""
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		return ""
	}
	name := fn.Name()
	pkg := fn.Pkg()
	pkgPath := ""
	if pkg != nil {
		pkgPath = pkg.Path()
	}

	// Anything from package net: conn reads/writes, dials, resolvers.
	if pkgPath == "net" {
		return "net." + recvPrefix(fn) + name
	}
	// (*os.File).Sync — the disk barrier.
	if pkgPath == "os" && name == "Sync" && recvNamed(fn) == "File" {
		return "(*os.File).Sync"
	}
	// The blob storage contract.
	if name == "PutBlob" || name == "GetBlob" {
		return name
	}
	// A disk barrier behind an interface, and transport sends/receives:
	// interface methods named Sync, Send or Recv, or Send/Recv methods of
	// a transport package.
	onInterface := false
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		onInterface = types.IsInterface(sig.Recv().Type())
	}
	if name == "Sync" && onInterface {
		return name
	}
	if (name == "Send" || name == "Recv") && (onInterface || strings.Contains(pkgPath, "transport")) {
		return name
	}
	return ""
}

// recvNamed returns the name of a method's receiver type, "" for
// plain functions.
func recvNamed(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

func recvPrefix(fn *types.Func) string {
	if n := recvNamed(fn); n != "" {
		return n + "."
	}
	return ""
}

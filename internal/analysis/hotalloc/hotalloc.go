// Package hotalloc statically rejects allocating constructs in functions
// annotated //sinrlint:hotpath.
//
// The steady-state slot path — the engine's tick and receive loops, the sparse/bounds/
// shard evaluation chunks, the ApplyEpoch steady-state patches, the
// protocol automata's Tick bodies (20 annotated functions) — is held to
// zero allocations per slot by dynamic gates (TestEngineStepAllocFree,
// macbench allocs/op columns). Those gates only fire on the workloads they
// run; this analyzer rejects the allocating constructs themselves, in any
// annotated function, before a workload ever exists:
//
//   - make, new
//   - map and slice composite literals, and &T{...} (escaping composite)
//   - append whose base is not reassigned to the same variable
//     (x = append(x, ...) — amortized growth of an owned buffer — is
//     allowed)
//   - function literals that capture enclosing variables (closure alloc)
//   - conversions of concrete values to interface types (boxing)
//   - fmt calls, string concatenation and string<->[]byte/[]rune
//     conversions
//
// The analyzer is deliberately conservative: a flagged construct may be
// provably non-escaping in context, and such sites carry a line-level
// //sinrlint:allow hotalloc with the proof sketch. Plain struct and array
// value literals are not flagged (they are stack values), and constructs in
// nested function literals are judged as part of the literal itself.
package hotalloc

import (
	"go/ast"
	"go/token"
	"go/types"

	"sinrmac/internal/analysis"
)

// Analyzer is the hotalloc check.
var Analyzer = &analysis.Analyzer{
	Name: "hotalloc",
	Doc:  "reject allocating constructs in //sinrlint:hotpath functions",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.NonTestFiles() {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !analysis.IsHotpathDoc(fd.Doc) {
				continue
			}
			check(pass, fd)
		}
	}
	return nil
}

type checker struct {
	pass *analysis.Pass
	// fn is the hotpath function; used to resolve result types for return
	// statements and to bound capture detection.
	fn *ast.FuncDecl
}

func check(pass *analysis.Pass, fd *ast.FuncDecl) {
	c := &checker{pass: pass, fn: fd}
	selfAppends := selfAppendCalls(pass, fd.Body)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			c.call(n, selfAppends)
		case *ast.CompositeLit:
			c.composite(n)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := n.X.(*ast.CompositeLit); ok {
					c.reportf(n.Pos(), "&composite literal allocates")
				}
			}
		case *ast.FuncLit:
			if capturesOuter(c.pass, n) {
				c.reportf(n.Pos(), "closure captures enclosing variables (allocates closure + boxed captures)")
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isString(c.pass.TypeOf(n)) {
				c.reportf(n.Pos(), "string concatenation allocates")
			}
		case *ast.AssignStmt:
			c.assign(n)
		case *ast.SendStmt:
			if ch := c.pass.TypeOf(n.Chan); ch != nil {
				if cht, ok := ch.Underlying().(*types.Chan); ok {
					c.ifaceConv(n.Value, cht.Elem())
				}
			}
		case *ast.ValueSpec:
			if n.Type != nil {
				dst := c.pass.TypeOf(n.Type)
				for _, v := range n.Values {
					c.ifaceConv(v, dst)
				}
			}
		case *ast.ReturnStmt:
			c.returnStmt(n)
		case *ast.GoStmt:
			c.reportf(n.Pos(), "go statement on a hot path (goroutine allocation and scheduling)")
		}
		return true
	})
}

func (c *checker) reportf(pos token.Pos, format string, args ...interface{}) {
	c.pass.Reportf(pos, "hotpath function %s: "+format, append([]interface{}{c.fn.Name.Name}, args...)...)
}

// selfAppendCalls returns the append calls appearing as x = append(x, ...):
// growth of a variable the function owns, amortized O(1) and free in
// steady state once capacity is reached.
func selfAppendCalls(pass *analysis.Pass, body *ast.BlockStmt) map[*ast.CallExpr]bool {
	out := map[*ast.CallExpr]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || (as.Tok != token.ASSIGN && as.Tok != token.DEFINE) {
			return true
		}
		for j, rhs := range as.Rhs {
			if j >= len(as.Lhs) {
				break
			}
			call, ok := rhs.(*ast.CallExpr)
			if !ok || !isBuiltin(pass, call, "append") || len(call.Args) == 0 {
				continue
			}
			if sameLValue(as.Lhs[j], call.Args[0]) {
				out[call] = true
			}
		}
		return true
	})
	return out
}

// sameLValue reports whether two expressions are syntactically the same
// identifier or selector chain (x, s.buf, s.a.b).
func sameLValue(a, b ast.Expr) bool {
	switch a := a.(type) {
	case *ast.Ident:
		bid, ok := b.(*ast.Ident)
		return ok && a.Name == bid.Name
	case *ast.SelectorExpr:
		bs, ok := b.(*ast.SelectorExpr)
		return ok && a.Sel.Name == bs.Sel.Name && sameLValue(a.X, bs.X)
	case *ast.IndexExpr:
		bi, ok := b.(*ast.IndexExpr)
		return ok && sameLValue(a.X, bi.X) && sameLValue(a.Index, bi.Index)
	}
	return false
}

func isBuiltin(pass *analysis.Pass, call *ast.CallExpr, name string) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := pass.ObjectOf(id).(*types.Builtin)
	return ok && b.Name() == name
}

func (c *checker) call(call *ast.CallExpr, selfAppends map[*ast.CallExpr]bool) {
	pass := c.pass
	// Conversions: T(x). Flag interface boxing and string<->bytes copies.
	if tv, ok := pass.Info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		dst := tv.Type
		src := pass.TypeOf(call.Args[0])
		if isInterface(dst) && src != nil && !isInterface(src) && !isUntypedNil(pass, call.Args[0]) {
			c.reportf(call.Pos(), "conversion to interface type %s boxes its operand", dst)
		}
		if isString(dst) && isByteOrRuneSlice(src) || isByteOrRuneSlice(dst) && isString(src) {
			c.reportf(call.Pos(), "string/slice conversion copies")
		}
		return
	}
	if id, ok := call.Fun.(*ast.Ident); ok {
		if b, ok := pass.ObjectOf(id).(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				c.reportf(call.Pos(), "make allocates")
			case "new":
				c.reportf(call.Pos(), "new allocates")
			case "append":
				if !selfAppends[call] {
					c.reportf(call.Pos(), "append to a slice the function does not own (not x = append(x, ...)) allocates on growth")
				}
			}
			return
		}
	}
	// Calls into fmt allocate (interface boxing of arguments, formatting
	// buffers).
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if id, ok := sel.X.(*ast.Ident); ok {
			if pn, ok := pass.ObjectOf(id).(*types.PkgName); ok && pn.Imported().Path() == "fmt" {
				c.reportf(call.Pos(), "fmt.%s allocates", sel.Sel.Name)
				return
			}
		}
	}
	// Implicit interface conversions at the call boundary.
	sigT := pass.TypeOf(call.Fun)
	if sigT == nil {
		return
	}
	sig, ok := sigT.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis != token.NoPos {
				continue // s... passes the slice through
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if pt != nil {
			c.ifaceConv(arg, pt)
		}
	}
}

func (c *checker) assign(as *ast.AssignStmt) {
	if as.Tok != token.ASSIGN && as.Tok != token.DEFINE {
		if as.Tok == token.ADD_ASSIGN && isString(c.pass.TypeOf(as.Lhs[0])) {
			c.reportf(as.Pos(), "string concatenation allocates")
		}
		return
	}
	for j, rhs := range as.Rhs {
		if j >= len(as.Lhs) {
			break
		}
		c.ifaceConv(rhs, c.pass.TypeOf(as.Lhs[j]))
	}
}

func (c *checker) returnStmt(ret *ast.ReturnStmt) {
	results := c.fnResults()
	for i, r := range ret.Results {
		if i < len(results) {
			c.ifaceConv(r, results[i])
		}
	}
}

func (c *checker) fnResults() []types.Type {
	obj := c.pass.ObjectOf(c.fn.Name)
	if obj == nil {
		return nil
	}
	sig, ok := obj.Type().(*types.Signature)
	if !ok {
		return nil
	}
	out := make([]types.Type, sig.Results().Len())
	for i := range out {
		out[i] = sig.Results().At(i).Type()
	}
	return out
}

// ifaceConv flags an implicit concrete→interface conversion of src when
// assigned to destination type dst.
func (c *checker) ifaceConv(src ast.Expr, dst types.Type) {
	if dst == nil || !isInterface(dst) {
		return
	}
	st := c.pass.TypeOf(src)
	if st == nil || isInterface(st) || isUntypedNil(c.pass, src) {
		return
	}
	c.reportf(src.Pos(), "implicit conversion of %s to interface %s boxes its operand", st, dst)
}

func (c *checker) composite(lit *ast.CompositeLit) {
	t := c.pass.TypeOf(lit)
	if t == nil {
		return
	}
	switch t.Underlying().(type) {
	case *types.Map:
		c.reportf(lit.Pos(), "map literal allocates")
	case *types.Slice:
		c.reportf(lit.Pos(), "slice literal allocates")
	}
	// Struct and array value literals are stack values; &T{...} is caught
	// at the UnaryExpr.
}

// capturesOuter reports whether the function literal references a variable
// declared outside it (other than package-level state, which needs no
// closure cell).
func capturesOuter(pass *analysis.Pass, lit *ast.FuncLit) bool {
	captured := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || captured {
			return !captured
		}
		v, ok := pass.ObjectOf(id).(*types.Var)
		if !ok || v.Pos() == 0 || v.IsField() {
			return true
		}
		if v.Parent() != nil && v.Parent().Parent() == types.Universe {
			return true // package-level
		}
		if v.Pos() < lit.Pos() || v.Pos() > lit.End() {
			captured = true
		}
		return true
	})
	return captured
}

func isInterface(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Interface)
	return ok
}

func isString(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	if t == nil {
		return false
	}
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune || b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

func isUntypedNil(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.Info.Types[e]
	if !ok {
		return false
	}
	b, ok := tv.Type.(*types.Basic)
	return ok && b.Kind() == types.UntypedNil
}

package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// PoolPair is a flow-sensitive check that pooled arenas are paired on every
// return path, including early-error returns: an AcquireArena result must
// reach a Release (direct or deferred) or be handed off (returned, stored
// in a struct/slice/map, passed to a call) before every function exit.
//
// The analysis is syntactic dataflow over the function body: branches of
// if/switch/select merge conservatively (a path is clean only if every
// surviving branch is), loop bodies are analyzed but assumed to possibly
// run zero times, and any alias or escape ends tracking (responsibility
// transferred). A false positive can be silenced with
// //slinfer:poolpair <reason> on the acquisition line.
var PoolPair = &Analyzer{
	Name: "poolpair",
	Doc:  "pair AcquireArena with Release on every return path",
	Run:  runPoolPair,
}

func runPoolPair(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			// Each function-shaped body (the decl and every literal in it)
			// is analyzed independently; an acquisition is checked against
			// the body it happens in.
			bodies := []*ast.BlockStmt{fd.Body}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok && lit.Body != nil {
					bodies = append(bodies, lit.Body)
				}
				return true
			})
			for _, body := range bodies {
				checkPoolBody(pass, body)
			}
		}
	}
	return nil
}

// checkPoolBody finds acquisitions directly inside body (not in nested
// literals) and runs the path analysis for each.
func checkPoolBody(pass *Pass, body *ast.BlockStmt) {
	var acqs []*ast.AssignStmt
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok && lit.Body != body {
			return false // nested literals get their own pass
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return true
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok {
			return true
		}
		id := calleeIdent(call)
		if id == nil || id.Name != "AcquireArena" {
			return true
		}
		if pass.LinePragma(as, "poolpair") {
			return true
		}
		if len(as.Lhs) != 1 {
			return true
		}
		lhs, ok := as.Lhs[0].(*ast.Ident)
		if !ok {
			return true // stored straight into a field/element: escaped
		}
		if lhs.Name == "_" {
			pass.Reportf(as.Pos(), "AcquireArena result discarded: the pooled value leaks")
			return true
		}
		acqs = append(acqs, as)
		return true
	})
	for _, acq := range acqs {
		lhs := acq.Lhs[0].(*ast.Ident)
		obj := pass.TypesInfo.Defs[lhs]
		if obj == nil {
			obj = pass.TypesInfo.Uses[lhs]
		}
		if obj == nil {
			continue
		}
		ck := &ppChecker{pass: pass, obj: obj, acq: acq, varName: lhs.Name}
		st, terminated := ck.runList(body.List, ppState{})
		if !terminated && st.acquired && !st.done {
			ck.report(acq.Pos(), "the end of the function")
		}
	}
}

type ppState struct {
	acquired bool
	done     bool // released, consumed, escaped, or covered by a defer
}

type ppChecker struct {
	pass     *Pass
	obj      types.Object
	acq      ast.Stmt
	varName  string
	reported bool
}

func (c *ppChecker) report(pos token.Pos, where string) {
	if c.reported {
		return
	}
	c.reported = true
	c.pass.Reportf(pos, "AcquireArena result %q may reach %s without Release: release on this path, defer %s.Release(), or annotate //slinfer:poolpair <reason>",
		c.varName, where, c.varName)
}

// runList walks a statement list in order. It returns the state after the
// list and whether every path through it terminates (returns/panics).
func (c *ppChecker) runList(stmts []ast.Stmt, st ppState) (ppState, bool) {
	for _, s := range stmts {
		var terminated bool
		st, terminated = c.runStmt(s, st)
		if terminated {
			return st, true
		}
	}
	return st, false
}

func (c *ppChecker) runStmt(s ast.Stmt, st ppState) (ppState, bool) {
	if s == c.acq {
		st.acquired, st.done = true, false
		return st, false
	}
	switch s := s.(type) {
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				c.scanExpr(s.X, &st)
				return st, true
			}
		}
		c.scanExpr(s.X, &st)
	case *ast.AssignStmt:
		for _, r := range s.Rhs {
			c.scanExpr(r, &st)
		}
		for _, l := range s.Lhs {
			// Writes through the tracked value (v.F = x, v[i] = x) are
			// neutral; everything else on the LHS is just scanned.
			if !rootedAt(l, c.obj, c.pass) {
				c.scanExpr(l, &st)
			}
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						c.scanExpr(v, &st)
					}
				}
			}
		}
	case *ast.DeferStmt:
		if c.isRelease(s.Call) {
			st.done = true
		} else if lit, ok := s.Call.Fun.(*ast.FuncLit); ok && c.containsRelease(lit.Body) {
			st.done = true
		} else {
			c.scanExpr(s.Call, &st)
		}
	case *ast.GoStmt:
		c.scanExpr(s.Call, &st)
	case *ast.SendStmt:
		c.scanExpr(s.Chan, &st)
		c.scanExpr(s.Value, &st)
	case *ast.IncDecStmt:
		c.scanExpr(s.X, &st)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			c.scanExpr(r, &st)
		}
		if st.acquired && !st.done {
			c.report(s.Pos(), "this return")
		}
		return st, true
	case *ast.BranchStmt:
		// break/continue/goto leave this statement list; the landing
		// site's state is unknowable syntactically, so stop the path here.
		return st, true
	case *ast.BlockStmt:
		return c.runList(s.List, st)
	case *ast.LabeledStmt:
		return c.runStmt(s.Stmt, st)
	case *ast.IfStmt:
		if s.Init != nil {
			st, _ = c.runStmt(s.Init, st)
		}
		c.scanExpr(s.Cond, &st)
		thenSt, thenTerm := c.runList(s.Body.List, st)
		elseSt, elseTerm := st, false
		if s.Else != nil {
			elseSt, elseTerm = c.runStmt(s.Else, st)
		}
		switch {
		case thenTerm && elseTerm:
			return st, true
		case thenTerm:
			return elseSt, false
		case elseTerm:
			return thenSt, false
		default:
			return mergeStates(thenSt, elseSt), false
		}
	case *ast.ForStmt:
		if s.Init != nil {
			st, _ = c.runStmt(s.Init, st)
		}
		if s.Cond != nil {
			c.scanExpr(s.Cond, &st)
		}
		// The body may run zero times: analyze it for per-path reports but
		// keep the entry state afterwards.
		c.runList(s.Body.List, st)
		return st, false
	case *ast.RangeStmt:
		c.scanExpr(s.X, &st)
		c.runList(s.Body.List, st)
		return st, false
	case *ast.SwitchStmt:
		if s.Init != nil {
			st, _ = c.runStmt(s.Init, st)
		}
		if s.Tag != nil {
			c.scanExpr(s.Tag, &st)
		}
		return c.runClauses(s.Body, st)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			st, _ = c.runStmt(s.Init, st)
		}
		return c.runClauses(s.Body, st)
	case *ast.SelectStmt:
		return c.runClauses(s.Body, st)
	}
	return st, false
}

// runClauses merges the per-clause states of a switch/select body. Without
// a default clause the entry state survives (no clause may match).
func (c *ppChecker) runClauses(body *ast.BlockStmt, st ppState) (ppState, bool) {
	var states []ppState
	hasDefault := false
	for _, clause := range body.List {
		var stmts []ast.Stmt
		switch cl := clause.(type) {
		case *ast.CaseClause:
			if cl.List == nil {
				hasDefault = true
			}
			for _, e := range cl.List {
				c.scanExpr(e, &st)
			}
			stmts = cl.Body
		case *ast.CommClause:
			if cl.Comm == nil {
				hasDefault = true
			} else {
				st, _ = c.runStmt(cl.Comm, st)
			}
			stmts = cl.Body
		}
		cs, term := c.runList(stmts, st)
		if !term {
			states = append(states, cs)
		}
	}
	if !hasDefault {
		states = append(states, st)
	}
	if len(states) == 0 {
		return st, true
	}
	merged := states[0]
	for _, s := range states[1:] {
		merged = mergeStates(merged, s)
	}
	return merged, false
}

func mergeStates(a, b ppState) ppState {
	return ppState{acquired: a.acquired || b.acquired, done: a.done && b.done}
}

// scanExpr classifies uses of the tracked object inside an expression:
// Release calls release it, passing it (or its address) to a call, storing
// it in a composite literal, aliasing it, or capturing it in a closure all
// count as consumption/handoff (tracking ends), and field reads/writes or
// other method calls on it are neutral.
func (c *ppChecker) scanExpr(e ast.Expr, st *ppState) {
	switch e := e.(type) {
	case nil:
	case *ast.Ident:
		if c.isObj(e) {
			st.done = true // bare alias/escape: stop tracking
		}
	case *ast.SelectorExpr:
		if id, ok := e.X.(*ast.Ident); ok && c.isObj(id) {
			return // v.Field read: neutral
		}
		c.scanExpr(e.X, st)
	case *ast.CallExpr:
		if sel, ok := e.Fun.(*ast.SelectorExpr); ok {
			if id, ok := sel.X.(*ast.Ident); ok && c.isObj(id) {
				if sel.Sel.Name == "Release" {
					st.done = true
				}
				// Other methods on v (a.NewController, a.Sim) neither
				// release nor hand off.
			} else {
				c.scanExpr(e.Fun, st)
			}
		} else {
			c.scanExpr(e.Fun, st)
		}
		for _, a := range e.Args {
			if c.isObjExpr(a) {
				st.done = true // handed to a callee (append, a registry, ...)
			} else {
				c.scanExpr(a, st)
			}
		}
	case *ast.CompositeLit:
		for _, elt := range e.Elts {
			v := elt
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				v = kv.Value
			}
			if c.isObjExpr(v) {
				st.done = true // stored in a struct/slice/map: escaped
			} else {
				c.scanExpr(v, st)
			}
		}
	case *ast.UnaryExpr:
		if e.Op == token.AND && c.isObjExpr(e.X) {
			st.done = true // address escapes
			return
		}
		c.scanExpr(e.X, st)
	case *ast.FuncLit:
		if c.mentions(e) {
			st.done = true // captured by a closure: lifetime unknowable
		}
	case *ast.BinaryExpr:
		c.scanExpr(e.X, st)
		c.scanExpr(e.Y, st)
	case *ast.ParenExpr:
		c.scanExpr(e.X, st)
	case *ast.StarExpr:
		c.scanExpr(e.X, st)
	case *ast.IndexExpr:
		c.scanExpr(e.X, st)
		c.scanExpr(e.Index, st)
	case *ast.SliceExpr:
		c.scanExpr(e.X, st)
	case *ast.TypeAssertExpr:
		c.scanExpr(e.X, st)
	case *ast.KeyValueExpr:
		c.scanExpr(e.Value, st)
	}
}

func (c *ppChecker) isObj(id *ast.Ident) bool {
	return c.pass.TypesInfo.Uses[id] == c.obj || c.pass.TypesInfo.Defs[id] == c.obj
}

// isObjExpr reports whether e is exactly the tracked value (allowing parens
// and a leading &).
func (c *ppChecker) isObjExpr(e ast.Expr) bool {
	for {
		switch t := e.(type) {
		case *ast.ParenExpr:
			e = t.X
		case *ast.UnaryExpr:
			if t.Op != token.AND {
				return false
			}
			e = t.X
		case *ast.Ident:
			return c.isObj(t)
		default:
			return false
		}
	}
}

func (c *ppChecker) isRelease(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Release" {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	return ok && c.isObj(id)
}

func (c *ppChecker) containsRelease(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && c.isRelease(call) {
			found = true
		}
		return !found
	})
	return found
}

func (c *ppChecker) mentions(n ast.Node) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if id, ok := m.(*ast.Ident); ok && c.isObj(id) {
			found = true
		}
		return !found
	})
	return found
}

// rootedAt reports whether the assignment target l writes through the
// tracked object (v.F = x, v[i] = x, *v = x).
func rootedAt(l ast.Expr, obj types.Object, pass *Pass) bool {
	for {
		switch t := l.(type) {
		case *ast.SelectorExpr:
			l = t.X
		case *ast.IndexExpr:
			l = t.X
		case *ast.StarExpr:
			l = t.X
		case *ast.ParenExpr:
			l = t.X
		case *ast.Ident:
			return pass.TypesInfo.Uses[t] == obj || pass.TypesInfo.Defs[t] == obj
		default:
			return false
		}
	}
}

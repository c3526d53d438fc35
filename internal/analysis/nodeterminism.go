package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// NoDeterminism guards the headline guarantee — byte-identical reports for
// a given (config, trace, seed) — inside the simulation-semantic packages.
// It flags the three ways wall-clock or platform nondeterminism leaks into
// simulation results:
//
//   - time.Now (and friends) — wall clock must never reach simulation
//     semantics. The two legitimate overhead-profiling sites carry a
//     //slinfer:wallclock <reason> annotation.
//   - the global math/rand source — only seeded rand/v2 generators (via
//     sim.RNG) are allowed; importing math/rand at all, or calling a
//     math/rand/v2 package-level sampling function (global source), is
//     flagged. rand/v2 constructors (New, NewPCG, ...) are fine.
//   - range over a map whose body emits ordered effects (event scheduling,
//     slice append, metric recording, floating-point accumulation, early
//     returns of iteration-dependent values): map iteration order is
//     randomized per run, so such loops must iterate a deterministic key
//     order instead. Loops whose effects are provably order-insensitive
//     carry //slinfer:maporder <reason>.
var NoDeterminism = &Analyzer{
	Name: "nodeterminism",
	Doc:  "flag wall clock, global rand, and order-sensitive map iteration in simulation-semantic packages",
	Run:  runNoDeterminism,
}

// semanticPackages is the set of packages whose code executes inside
// simulation semantics — anything here can perturb a report.
var semanticPackages = map[string]bool{
	"slinfer/internal/sim":      true,
	"slinfer/internal/core":     true,
	"slinfer/internal/cluster":  true,
	"slinfer/internal/engine":   true,
	"slinfer/internal/memctl":   true,
	"slinfer/internal/kvcache":  true,
	"slinfer/internal/fleet":    true,
	"slinfer/internal/scenario": true,
	// metrics turns a run's observations into its report: an unordered
	// walk that sums floats moves the report's bits.
	"slinfer/internal/metrics": true,
	// telemetry records on the simulation hot path and its exports must be
	// byte-identical across runs: wall clock, global rand, and unordered
	// map walks are all export-order hazards.
	"slinfer/internal/telemetry": true,
}

func runNoDeterminism(pass *Pass) error {
	path := pass.Pkg.Path()
	// Fixture packages under testdata are always in scope so analysistest
	// can exercise the analyzer.
	if !semanticPackages[path] && !strings.Contains(path, "testdata") {
		return nil
	}
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			if imp.Path.Value == `"math/rand"` {
				pass.Reportf(imp.Pos(), "import of math/rand in simulation-semantic package: use seeded rand/v2 via sim.RNG")
			}
		}
		// Walk with the enclosing function declaration tracked, so the
		// //slinfer:wallclock escape hatch can live on a func doc comment.
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch node := n.(type) {
				case *ast.CallExpr:
					checkCallDeterminism(pass, fd, node)
				case *ast.RangeStmt:
					checkMapRange(pass, fd, node)
				}
				return true
			})
		}
	}
	return nil
}

func checkCallDeterminism(pass *Pass, fd *ast.FuncDecl, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() != nil {
		return // methods are fine; only package-level sources matter
	}
	switch fn.Pkg().Path() {
	case "time":
		if fn.Name() == "Now" || fn.Name() == "Since" || fn.Name() == "Until" {
			if pass.LinePragma(call, "wallclock") || FuncPragma(fd, "wallclock") {
				return
			}
			pass.Reportf(call.Pos(), "time.%s in simulation-semantic package %s: wall clock must not reach simulation semantics (annotate //slinfer:wallclock <reason> if this only feeds diagnostics)",
				fn.Name(), pass.Pkg.Path())
		}
	case "math/rand", "math/rand/v2":
		if strings.HasPrefix(fn.Name(), "New") {
			return // seeded constructors are the sanctioned path
		}
		pass.Reportf(call.Pos(), "%s.%s draws from the global rand source: simulation semantics must use seeded rand/v2 via sim.RNG",
			fn.Pkg().Path(), fn.Name())
	}
}

// checkMapRange flags range-over-map statements whose body has ordered
// effects. The canonical sort-keys fix — append every key to a slice, then
// sort it before use — is recognized and not flagged.
func checkMapRange(pass *Pass, fd *ast.FuncDecl, rs *ast.RangeStmt) {
	tv, ok := pass.TypesInfo.Types[rs.X]
	if !ok || tv.Type == nil {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	if pass.LinePragma(rs, "maporder") {
		return
	}
	// Range variable objects, for the iteration-dependent-return check.
	rangeVars := map[types.Object]bool{}
	for _, e := range []ast.Expr{rs.Key, rs.Value} {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			if obj := pass.TypesInfo.Defs[id]; obj != nil {
				rangeVars[obj] = true
			}
			if obj := pass.TypesInfo.Uses[id]; obj != nil {
				rangeVars[obj] = true
			}
		}
	}
	effect, appended := orderedEffect(pass, rs.Body, rangeVars)
	if effect == "" && len(appended) > 0 {
		for obj := range appended {
			if !sortedAfter(pass, fd, rs, obj) {
				effect = "append builds an iteration-ordered slice"
				break
			}
		}
	}
	if effect != "" {
		pass.Reportf(rs.Pos(), "range over map has ordered effects (%s): iterate a deterministic key order, or annotate //slinfer:maporder <reason> if provably order-insensitive", effect)
	}
}

// sortedAfter reports whether obj (a slice appended to inside a map range)
// is passed to a sort/slices call after the range statement — the
// collect-keys-then-sort idiom, whose result is order-insensitive.
func sortedAfter(pass *Pass, fd *ast.FuncDecl, rs *ast.RangeStmt, obj types.Object) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || found || call.Pos() < rs.End() {
			return !found
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil {
			return true
		}
		if p := fn.Pkg().Path(); p != "sort" && p != "slices" {
			return true
		}
		for _, arg := range call.Args {
			if id, ok := rootIdent(arg); ok && pass.TypesInfo.Uses[id] == obj {
				found = true
			}
		}
		return !found
	})
	return found
}

// rootIdent strips parens, &, and slice expressions down to a base ident.
func rootIdent(e ast.Expr) (*ast.Ident, bool) {
	for {
		switch t := e.(type) {
		case *ast.Ident:
			return t, true
		case *ast.ParenExpr:
			e = t.X
		case *ast.UnaryExpr:
			e = t.X
		case *ast.SliceExpr:
			e = t.X
		default:
			return nil, false
		}
	}
}

// orderedEffect scans a map-range body for the first construct whose result
// depends on iteration order. Order-insensitive bodies — integer/boolean
// accumulation, delete on the ranged map, plain keyed assignment — pass.
// Appends to identifiable local slices are returned in appended rather than
// reported, so the caller can accept the collect-then-sort idiom.
func orderedEffect(pass *Pass, body ast.Node, rangeVars map[types.Object]bool) (string, map[types.Object]bool) {
	var effect string
	appended := map[types.Object]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		if effect != "" {
			return false
		}
		switch node := n.(type) {
		case *ast.CallExpr:
			switch callee := calleeKind(pass, node); callee {
			case "append":
				if id, ok := rootIdent(node.Args[0]); ok {
					if obj := pass.TypesInfo.Uses[id]; obj != nil {
						appended[obj] = true
						return true
					}
				}
				effect = "append builds an iteration-ordered slice"
				return false
			case "copy", "print", "println":
				effect = "builtin " + callee
				return false
			case "builtin", "conversion":
				return true // delete/len/cap/min/max/clear/new/make and type conversions are order-free
			case "panic":
				return true // failure path; order only affects which violation reports first
			default:
				effect = "call to " + callee + " may schedule, record, or accumulate in iteration order"
				return false
			}
		case *ast.SendStmt:
			effect = "channel send"
			return false
		case *ast.AssignStmt:
			if node.Tok.String() == "=" || node.Tok.String() == ":=" {
				return true
			}
			// Compound assignment: float accumulation is order-sensitive
			// (rounding), integer/bool accumulation is not.
			for _, lhs := range node.Lhs {
				if tv, ok := pass.TypesInfo.Types[lhs]; ok && tv.Type != nil {
					if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsFloat != 0 {
						effect = "floating-point accumulation is rounding-order-sensitive"
						return false
					}
				}
			}
		case *ast.ReturnStmt:
			for _, res := range node.Results {
				mentions := false
				ast.Inspect(res, func(m ast.Node) bool {
					if id, ok := m.(*ast.Ident); ok && rangeVars[pass.TypesInfo.Uses[id]] {
						mentions = true
					}
					return !mentions
				})
				if mentions {
					effect = "early return of an iteration-dependent value"
					return false
				}
			}
		}
		return true
	})
	return effect, appended
}

// calleeKind classifies a call: "builtin" / "conversion" for order-free
// forms, the specific builtin name for order-sensitive ones, or the callee
// name for ordinary calls.
func calleeKind(pass *Pass, call *ast.CallExpr) string {
	if tv, ok := pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
		return "conversion"
	}
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return "anonymous function"
	}
	if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok {
		switch b.Name() {
		case "append", "copy", "print", "println", "panic":
			return b.Name()
		default:
			return "builtin"
		}
	}
	if id.Name == "panic" {
		return "panic"
	}
	return id.Name
}

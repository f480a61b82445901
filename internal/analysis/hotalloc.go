package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// HotAlloc enforces `//rkvet:noalloc` — the annotation the solver's hot paths
// (the served SRK engine's round kernels, the bitset word kernels)
// carry to promise "this runs per candidate per round and must not touch the
// allocator". The benchmark suite catches allocation regressions after the
// fact; hotalloc rejects them at lint time, interprocedurally: a function
// marked noalloc must be free of heap-forcing constructs, and so must every
// module function statically reachable from it on the call graph.
//
// Heap-forcing constructs:
//
//   - closure literals and `go` statements (closure env + goroutine stacks);
//   - make / new;
//   - map and slice composite literals, and &T{} (escaping composite);
//   - append, unless it targets a reused backing array: the first argument is
//     a slice expression (append(x[:0], ...)) or the function reslices the
//     same variable earlier (x = x[:0]; ... x = append(x, ...)), the
//     amortized-reuse idiom of pooled scratch;
//   - fmt.* calls (interface boxing plus internal buffers);
//   - passing a non-pointer concrete value to an interface parameter
//     (implicit boxing);
//   - non-constant string concatenation;
//   - calls through function values — unresolvable by the call graph, so
//     unprovable, so rejected.
//
// Calls to module functions are not constructs; they are edges, and the
// closure of the graph brings the callee's body under the same scrutiny.
// Stdlib calls other than fmt.* are trusted (the kernels call math/bits and
// sync/atomic, which do not allocate); that trust is the one documented hole.
//
// HotAlloc is stateful (roots and the reachability closure are module-wide;
// findings land in whichever package holds the offending line, keeping
// //rkvet:ignore suppression local). Obtain a fresh instance per run via
// NewHotAlloc.
type HotAlloc struct {
	byFile map[*Module]map[string][]Finding
}

// NewHotAlloc returns a fresh checker.
func NewHotAlloc() *HotAlloc {
	return &HotAlloc{byFile: map[*Module]map[string][]Finding{}}
}

// Name implements Checker.
func (*HotAlloc) Name() string { return "hotalloc" }

// Check implements Checker.
func (c *HotAlloc) Check(p *Package) []Finding {
	byFile := c.moduleFindings(p.Mod)
	var out []Finding
	for _, fn := range p.Filenames {
		out = append(out, byFile[fn]...)
	}
	return out
}

// moduleFindings runs the interprocedural pass once per module.
func (c *HotAlloc) moduleFindings(mod *Module) map[string][]Finding {
	if f, ok := c.byFile[mod]; ok {
		return f
	}
	byFile := map[string][]Finding{}
	g := mod.CallGraph()

	var roots []*CallNode
	for _, n := range g.Nodes() {
		if hasNoallocMark(n.Decl) {
			roots = append(roots, n)
		}
	}

	scanned := map[*types.Func][]allocSite{}
	reported := map[token.Pos]bool{}
	for _, root := range roots {
		reach := g.ReachableFrom([]*types.Func{root.Fn})
		for fn := range reach {
			n := g.Node(fn)
			if n == nil {
				continue
			}
			sites, ok := scanned[fn]
			if !ok {
				sites = allocSites(n.Pkg, n.Decl)
				scanned[fn] = sites
			}
			for _, s := range sites {
				if reported[s.pos] {
					continue
				}
				reported[s.pos] = true
				var msg string
				if fn == root.Fn {
					msg = fmt.Sprintf("%s is marked //rkvet:noalloc but %s", funcName(n.Decl), s.what)
				} else {
					msg = fmt.Sprintf("%s %s, and it is reachable from //rkvet:noalloc %s", funcName(n.Decl), s.what, funcName(root.Decl))
				}
				pos := mod.Fset.Position(s.pos)
				byFile[pos.Filename] = append(byFile[pos.Filename], Finding{
					Pos:     pos,
					Checker: "hotalloc",
					Message: msg,
				})
			}
		}
	}
	c.byFile[mod] = byFile
	return byFile
}

// hasNoallocMark reports whether the declaration's doc comment carries the
// //rkvet:noalloc directive.
func hasNoallocMark(fd *ast.FuncDecl) bool {
	if fd == nil || fd.Doc == nil {
		return false
	}
	for _, cm := range fd.Doc.List {
		if strings.HasPrefix(strings.TrimSpace(cm.Text), "//rkvet:noalloc") {
			return true
		}
	}
	return false
}

// allocSite is one heap-forcing construct in a function body.
type allocSite struct {
	pos  token.Pos
	what string
}

// allocSites scans one function body for heap-forcing constructs.
func allocSites(p *Package, fd *ast.FuncDecl) []allocSite {
	var sites []allocSite
	add := func(pos token.Pos, what string) {
		sites = append(sites, allocSite{pos: pos, what: what})
	}
	resliced := reslicedExprs(fd.Body)

	var stack []ast.Node
	parentOf := func() ast.Node {
		if len(stack) < 2 {
			return nil
		}
		return stack[len(stack)-2]
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		switch e := n.(type) {
		case *ast.FuncLit:
			add(e.Pos(), "creates a closure, which allocates its environment")
		case *ast.GoStmt:
			add(e.Pos(), "spawns a goroutine")
		case *ast.CompositeLit:
			switch p.Info.TypeOf(e).Underlying().(type) {
			case *types.Map:
				add(e.Pos(), "builds a map literal")
			case *types.Slice:
				add(e.Pos(), "builds a slice literal")
			default:
				if un, ok := parentOf().(*ast.UnaryExpr); ok && un.Op == token.AND {
					add(e.Pos(), "takes the address of a composite literal")
				}
			}
		case *ast.BinaryExpr:
			if e.Op == token.ADD && isNonConstString(p, e) {
				add(e.Pos(), "concatenates strings at runtime")
			}
		case *ast.CallExpr:
			sites = append(sites, callSites(p, e, resliced)...)
		}
		return true
	})
	return sites
}

// callSites classifies one call expression.
func callSites(p *Package, call *ast.CallExpr, resliced map[string]bool) []allocSite {
	var sites []allocSite
	fun := ast.Unparen(call.Fun)

	if id, ok := fun.(*ast.Ident); ok {
		if b, isBuiltin := p.Info.Uses[id].(*types.Builtin); isBuiltin {
			switch b.Name() {
			case "make":
				sites = append(sites, allocSite{call.Pos(), "calls make"})
			case "new":
				sites = append(sites, allocSite{call.Pos(), "calls new"})
			case "append":
				if !appendReusesBacking(call, resliced) {
					sites = append(sites, allocSite{call.Pos(), "appends without the reuse-backing idiom (x = x[:0] first, or append(x[:0], ...)), so the slice may grow"})
				}
			}
			return sites
		}
	}

	// Conversions are free of dispatch; a conversion to an interface type
	// still boxes, caught below through the argument rule of the outer call.
	if tv, ok := p.Info.Types[call.Fun]; ok && tv.IsType() {
		return sites
	}

	callee := staticCallee(p, call)
	if sel, ok := fun.(*ast.SelectorExpr); ok {
		if _, isMethod := p.Info.Selections[sel]; !isMethod && callee != nil {
			if callee.Pkg() != nil && callee.Pkg().Path() == "fmt" {
				sites = append(sites, allocSite{call.Pos(), "calls fmt." + callee.Name() + ", which boxes its arguments"})
				return sites
			}
		}
	}
	if callee == nil {
		sites = append(sites, allocSite{call.Pos(), "calls through a function value, which the call graph cannot prove allocation-free"})
		return sites
	}

	// Implicit interface boxing at the call boundary.
	sig, ok := callee.Type().(*types.Signature)
	if !ok {
		return sites
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case i < params.Len()-1 || (i == params.Len()-1 && !sig.Variadic()):
			pt = params.At(i).Type()
		case params.Len() > 0:
			last := params.At(params.Len() - 1).Type()
			if s, ok := last.(*types.Slice); ok && sig.Variadic() {
				pt = s.Elem()
			}
		}
		if pt == nil || !types.IsInterface(pt) {
			continue
		}
		at := p.Info.TypeOf(arg)
		if at == nil || types.IsInterface(at) {
			continue
		}
		if _, isPtr := at.Underlying().(*types.Pointer); isPtr {
			continue // pointers fit the interface word without boxing
		}
		if tv, ok := p.Info.Types[arg]; ok && tv.Value != nil {
			continue // constants may be boxed at compile time; out of scope
		}
		sites = append(sites, allocSite{arg.Pos(), fmt.Sprintf("passes a non-pointer %s to an interface parameter of %s, which boxes it", at, callee.Name())})
	}
	return sites
}

// appendReusesBacking reports whether append(x, ...) targets a reused backing
// array: x is itself a slice expression, or the function reslices the same
// expression somewhere (x = x[:0]).
func appendReusesBacking(call *ast.CallExpr, resliced map[string]bool) bool {
	if len(call.Args) == 0 {
		return false
	}
	first := ast.Unparen(call.Args[0])
	if _, ok := first.(*ast.SliceExpr); ok {
		return true
	}
	return resliced[types.ExprString(first)]
}

// reslicedExprs collects the rendered form of every expression assigned a
// slice of itself (x = x[:0] and friends) in body.
func reslicedExprs(body *ast.BlockStmt) map[string]bool {
	out := map[string]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			se, ok := ast.Unparen(rhs).(*ast.SliceExpr)
			if !ok {
				continue
			}
			lhs := types.ExprString(ast.Unparen(as.Lhs[i]))
			if types.ExprString(ast.Unparen(se.X)) == lhs {
				out[lhs] = true
			}
		}
		return true
	})
	return out
}

// isNonConstString reports whether e is a string-typed expression whose value
// is not compile-time constant.
func isNonConstString(p *Package, e ast.Expr) bool {
	tv, ok := p.Info.Types[e]
	if !ok || tv.Value != nil {
		return false
	}
	basic, ok := tv.Type.Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsString != 0
}

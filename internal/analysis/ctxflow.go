package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// CtxFlow enforces context threading through the solver stack (the anytime
// degradation contract, DESIGN.md §9): once a request carries a deadline,
// every hop below it must keep carrying it, or the deadline silently stops
// degrading solves to valid-but-larger keys and starts being ignored.
//
// Two rules, both backed by the module call graph:
//
//  1. A function that takes a context.Context must not call a module
//     function that has a ctx-aware sibling — the variant whose name adds
//     "Ctx" or "Anytime" (Explain → ExplainCtx, SRK → SRKAnytime,
//     ExplainAll → ExplainAllCtx). Calling the plain variant from
//     ctx-carrying code severs the deadline right where it mattered.
//
//  2. context.Background() / context.TODO() manufactures a fresh root
//     context. That is flagged when it can swallow a caller's deadline:
//     inside a function that already has a ctx parameter, inside a function
//     reachable on the call graph from any ctx-carrying module function,
//     when the fresh root is fed (directly or via a local) into a
//     ctx-taking callee, or inside a Background()-specialization wrapper
//     (a function that has a ctx-aware sibling). Package main is exempt:
//     composing the process root context is wiring's job. The sanctioned
//     specialization wrappers (cce.Batch.Explain, cce.Window.Explain, ...)
//     document themselves with //rkvet:ignore ctxflow and a reason.
//
// CtxFlow is stateful (memoized sibling map and reachability closure per
// module); obtain a fresh instance per run via NewCtxFlow.
type CtxFlow struct {
	siblings map[*Module]map[*types.Func]*types.Func
	ctxReach map[*Module]map[*types.Func]bool
}

// NewCtxFlow returns a fresh checker.
func NewCtxFlow() *CtxFlow {
	return &CtxFlow{
		siblings: map[*Module]map[*types.Func]*types.Func{},
		ctxReach: map[*Module]map[*types.Func]bool{},
	}
}

// Name implements Checker.
func (*CtxFlow) Name() string { return "ctxflow" }

// Check implements Checker.
func (c *CtxFlow) Check(p *Package) []Finding {
	sib := c.siblingMap(p.Mod)
	reach := c.reachable(p.Mod)
	var out []Finding
	for _, file := range p.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := p.Info.Defs[fd.Name].(*types.Func)
			if fn == nil {
				continue
			}
			if CtxParam(fn) >= 0 {
				out = append(out, c.checkSiblingCalls(p, fd, fn, sib)...)
			}
			if p.Types.Name() != "main" {
				out = append(out, c.checkFreshRoots(p, fd, fn, sib, reach)...)
			}
		}
	}
	return out
}

// checkSiblingCalls flags calls from ctx-carrying fn to module functions
// whose ctx-aware sibling exists (rule 1).
func (c *CtxFlow) checkSiblingCalls(p *Package, fd *ast.FuncDecl, fn *types.Func, sib map[*types.Func]*types.Func) []Finding {
	var out []Finding
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := staticCallee(p, call)
		if callee == nil || CtxParam(callee) >= 0 {
			return true
		}
		if s := sib[callee]; s != nil {
			out = append(out, Finding{
				Pos:     p.Mod.Fset.Position(call.Pos()),
				Checker: c.Name(),
				Message: fmt.Sprintf("%s takes a context.Context but calls %s, severing the deadline; call the ctx-aware sibling %s", funcName(fd), callee.Name(), s.Name()),
			})
		}
		return true
	})
	return out
}

// checkFreshRoots flags context.Background()/TODO() sites per rule 2.
func (c *CtxFlow) checkFreshRoots(p *Package, fd *ast.FuncDecl, fn *types.Func, sib map[*types.Func]*types.Func, reach map[*types.Func]bool) []Finding {
	roots := freshRootCalls(p, fd.Body)
	if len(roots) == 0 {
		return nil
	}
	fed := fedRoots(p, fd.Body, roots)
	isWrapper := hasCtxSibling(fn, sib)
	var out []Finding
	for _, bg := range roots {
		var why string
		switch {
		case fed[bg]:
			why = "feeds a ctx-aware callee a fresh root context"
		case CtxParam(fn) >= 0:
			why = "drops the function's own ctx parameter"
		case isWrapper:
			why = "a Background()-specialization wrapper must document itself"
		case reach[fn]:
			why = "reachable from a ctx-carrying entry point"
		default:
			continue
		}
		out = append(out, Finding{
			Pos:     p.Mod.Fset.Position(bg.Pos()),
			Checker: c.Name(),
			Message: fmt.Sprintf("context.%s() in %s %s; thread the caller's ctx or document with //rkvet:ignore ctxflow <reason>", rootName(p, bg), funcName(fd), why),
		})
	}
	return out
}

// siblingMap computes, module-wide, non-ctx function → its ctx-aware sibling:
// the same-package, same-receiver function whose name strips (removing "Ctx"
// and "Anytime") to the plain function's name and that takes a context.
func (c *CtxFlow) siblingMap(mod *Module) map[*types.Func]*types.Func {
	if m, ok := c.siblings[mod]; ok {
		return m
	}
	// ctx-carriers indexed by (package, receiver, stripped name).
	carriers := map[string]*types.Func{}
	var plain []*types.Func
	for _, n := range mod.CallGraph().Nodes() {
		if CtxParam(n.Fn) >= 0 {
			key := siblingKey(n.Fn, stripCtxName(n.Fn.Name()))
			if _, dup := carriers[key]; !dup {
				carriers[key] = n.Fn
			}
		} else {
			plain = append(plain, n.Fn)
		}
	}
	m := map[*types.Func]*types.Func{}
	for _, fn := range plain {
		if s, ok := carriers[siblingKey(fn, fn.Name())]; ok && s != fn {
			m[fn] = s
		}
	}
	c.siblings[mod] = m
	return m
}

// reachable computes the set of module functions reachable from any
// ctx-carrying module function, seeds included (a carrier's own Background()
// is reported through the more specific drops-own-ctx rule, which
// checkFreshRoots orders first).
func (c *CtxFlow) reachable(mod *Module) map[*types.Func]bool {
	if r, ok := c.ctxReach[mod]; ok {
		return r
	}
	g := mod.CallGraph()
	var seeds []*types.Func
	for _, n := range g.Nodes() {
		if CtxParam(n.Fn) >= 0 && n.Pkg.Types.Name() != "main" {
			seeds = append(seeds, n.Fn)
		}
	}
	reach := g.ReachableFrom(seeds)
	c.ctxReach[mod] = reach
	return reach
}

// hasCtxSibling reports whether fn itself is the plain half of a sibling
// pair.
func hasCtxSibling(fn *types.Func, sib map[*types.Func]*types.Func) bool {
	return sib[fn] != nil
}

// siblingKey renders the identity under which sibling pairing matches:
// package, receiver base type, and a name.
func siblingKey(fn *types.Func, name string) string {
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Path()
	}
	recv := ""
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		recv = recvBaseName(sig.Recv().Type())
	}
	return pkg + "\x00" + recv + "\x00" + name
}

// recvBaseName names the receiver's base named type.
func recvBaseName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok && named.Obj() != nil {
		return named.Obj().Name()
	}
	return ""
}

// stripCtxName removes the "Ctx" and "Anytime" name segments that mark the
// context-aware variant: ExplainCtx → Explain, SRKAnytime → SRK,
// ExplainAllCtx → ExplainAll.
func stripCtxName(name string) string {
	name = strings.ReplaceAll(name, "Anytime", "")
	return strings.ReplaceAll(name, "Ctx", "")
}

// freshRootCalls collects context.Background()/context.TODO() call sites in
// body.
func freshRootCalls(p *Package, body *ast.BlockStmt) []*ast.CallExpr {
	var out []*ast.CallExpr
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if ok && rootName(p, call) != "" {
			out = append(out, call)
		}
		return true
	})
	return out
}

// rootName returns "Background" or "TODO" when call is the corresponding
// context-package constructor, else "".
func rootName(p *Package, call *ast.CallExpr) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Background" && sel.Sel.Name != "TODO") {
		return ""
	}
	fn, ok := p.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "context" {
		return ""
	}
	return sel.Sel.Name
}

// fedRoots reports which fresh-root calls flow — directly as an argument, or
// through a same-function local — into a context.Context parameter of any
// callee. The local-variable flow is one hop, flow-insensitive: x :=
// context.Background(); f(x, ...) marks the Background site.
func fedRoots(p *Package, body *ast.BlockStmt, roots []*ast.CallExpr) map[*ast.CallExpr]bool {
	isRoot := map[ast.Expr]*ast.CallExpr{}
	for _, r := range roots {
		isRoot[r] = r
	}
	// Locals assigned from a fresh root.
	viaVar := map[types.Object]*ast.CallExpr{}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			r, ok := isRoot[ast.Unparen(rhs)]
			if !ok {
				continue
			}
			if id, ok := as.Lhs[i].(*ast.Ident); ok {
				if obj := p.Info.Defs[id]; obj != nil {
					viaVar[obj] = r
				} else if obj := p.Info.Uses[id]; obj != nil {
					viaVar[obj] = r
				}
			}
		}
		return true
	})
	fed := map[*ast.CallExpr]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		for _, arg := range call.Args {
			arg = ast.Unparen(arg)
			if !isContextType(p.Info.TypeOf(arg)) {
				continue
			}
			if r, ok := isRoot[arg]; ok && rootName(p, call) == "" {
				fed[r] = true
			}
			if id, ok := arg.(*ast.Ident); ok {
				if r, ok := viaVar[p.Info.Uses[id]]; ok {
					fed[r] = true
				}
			}
		}
		return true
	})
	return fed
}

// staticCallee resolves a call to the module or stdlib function it statically
// names, or nil for dynamic calls, conversions, and builtins.
func staticCallee(p *Package, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := p.Info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := p.Info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

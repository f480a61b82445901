package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// AtomicField guards the atomic-access protocols of the concurrent solver
// core (the best-root bound in core/exact.go): a memory location
// that is touched through sync/atomic anywhere in the module must never be
// read or written plainly anywhere else in the module, because one plain
// access next to one atomic access is a data race whether or not the race
// detector happens to schedule it.
//
// Concretely, module-wide:
//
//   - A struct field or package-level variable whose address — or the
//     address of one of its elements, for slice/array fields — is passed
//     to a sync/atomic function is "atomic".
//     Every plain (non-sync/atomic) read or write of that location elsewhere
//     is a finding. Quiescent phases (single-owner setup before workers are
//     dispatched, reads after a WaitGroup join) are real and sanctioned by a
//     reasoned //rkvet:ignore atomicfield — the annotation is the point: it
//     forces the happens-before argument to be written down next to the
//     access.
//
//   - A struct field of a typed atomic (atomic.Int64, atomic.Bool, ...) is
//     safe by construction for loads and stores, but assigning or copying
//     the value itself (s.n = other.n, f(s.n)) smuggles a plain access past
//     the type; those are findings too. Taking its address and calling its
//     methods are the protocol and stay silent.
//
// AtomicField is stateful (the atomic-location sets are module-wide, found
// in one pass and then checked per package); obtain a fresh instance per run
// via NewAtomicField.
type AtomicField struct {
	marks map[*Module]*atomicMarks
}

// NewAtomicField returns a fresh checker.
func NewAtomicField() *AtomicField {
	return &AtomicField{marks: map[*Module]*atomicMarks{}}
}

// Name implements Checker.
func (*AtomicField) Name() string { return "atomicfield" }

// atomicMarks is the module-wide mark set: locations whose own address
// (direct) or whose element address (element, for slice/array locations)
// reaches a sync/atomic function, with one witness position each.
type atomicMarks struct {
	direct  map[types.Object]token.Position
	element map[types.Object]token.Position
}

// Check implements Checker.
func (c *AtomicField) Check(p *Package) []Finding {
	m := c.moduleMarks(p.Mod)
	if len(m.direct) == 0 && len(m.element) == 0 && !importsSyncAtomic(p) {
		return nil
	}
	var out []Finding
	for _, file := range p.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			out = append(out, c.checkBody(p, fd, m)...)
		}
	}
	return out
}

// checkBody flags plain accesses to atomically-touched locations and plain
// copies of typed atomics within one function body. The walk tracks parents
// so a selector can see the expression consuming it.
func (c *AtomicField) checkBody(p *Package, fd *ast.FuncDecl, m *atomicMarks) []Finding {
	// Expressions sitting under &x inside a sync/atomic call argument are
	// the sanctioned access form.
	blessed := map[ast.Node]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || !isSyncAtomicCall(p, call) {
			return true
		}
		for _, arg := range call.Args {
			if un, ok := ast.Unparen(arg).(*ast.UnaryExpr); ok && un.Op == token.AND {
				ast.Inspect(un, func(inner ast.Node) bool {
					blessed[inner] = true
					return true
				})
			}
		}
		return true
	})

	var out []Finding
	report := func(pos token.Pos, format string, args ...any) {
		out = append(out, Finding{
			Pos:     p.Mod.Fset.Position(pos),
			Checker: c.Name(),
			Message: fmt.Sprintf(format, args...),
		})
	}

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
		case *ast.SelectorExpr:
			obj := selectedObj(p, e)
			if obj == nil || blessed[e] {
				return true
			}
			if name := typedAtomicType(obj.Type()); name != "" {
				if plainTypedUse(parentOf(), e) {
					report(e.Pos(), "%s copies or reassigns %s (a typed %s); use its methods, or share it by pointer", funcName(fd), renderSel(e), name)
				}
				return true
			}
			if pos, ok := m.direct[obj]; ok {
				report(e.Pos(), "%s accesses %s plainly, but it is accessed with sync/atomic at %s; use atomic access or document the quiescent phase with //rkvet:ignore atomicfield <reason>", funcName(fd), renderSel(e), posShort(pos))
			}
		case *ast.IndexExpr:
			sel, ok := ast.Unparen(e.X).(*ast.SelectorExpr)
			if !ok || blessed[e] {
				return true
			}
			obj := selectedObj(p, sel)
			if obj == nil {
				return true
			}
			if pos, ok := m.element[obj]; ok {
				report(e.Pos(), "%s accesses an element of %s plainly, but elements are accessed with sync/atomic at %s; use atomic access or document the quiescent phase with //rkvet:ignore atomicfield <reason>", funcName(fd), renderSel(sel), posShort(pos))
			}
		case *ast.Ident:
			obj := p.Info.Uses[e]
			if obj == nil || !isPackageLevelVar(obj) || blessed[e] {
				return true
			}
			if pos, ok := m.direct[obj]; ok && !partOfSelector(parentOf(), e) {
				report(e.Pos(), "%s accesses %s plainly, but it is accessed with sync/atomic at %s; use atomic access or document the quiescent phase with //rkvet:ignore atomicfield <reason>", funcName(fd), e.Name, posShort(pos))
			}
		}
		return true
	})
	return out
}

// moduleMarks scans every package once for addresses reaching sync/atomic.
func (c *AtomicField) moduleMarks(mod *Module) *atomicMarks {
	if m, ok := c.marks[mod]; ok {
		return m
	}
	m := &atomicMarks{direct: map[types.Object]token.Position{}, element: map[types.Object]token.Position{}}
	for _, p := range mod.Pkgs {
		for _, file := range p.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || !isSyncAtomicCall(p, call) {
					return true
				}
				for _, arg := range call.Args {
					un, ok := ast.Unparen(arg).(*ast.UnaryExpr)
					if !ok || un.Op != token.AND {
						continue
					}
					pos := p.Mod.Fset.Position(un.Pos())
					switch target := ast.Unparen(un.X).(type) {
					case *ast.SelectorExpr:
						if obj := selectedObj(p, target); obj != nil {
							m.direct[obj] = pos
						}
					case *ast.IndexExpr:
						if sel, ok := ast.Unparen(target.X).(*ast.SelectorExpr); ok {
							if obj := selectedObj(p, sel); obj != nil {
								m.element[obj] = pos
							}
						} else if id, ok := ast.Unparen(target.X).(*ast.Ident); ok {
							if obj := p.Info.Uses[id]; obj != nil && isPackageLevelVar(obj) {
								m.element[obj] = pos
							}
						}
					case *ast.Ident:
						if obj := p.Info.Uses[target]; obj != nil && isPackageLevelVar(obj) {
							m.direct[obj] = pos
						}
					}
				}
				return true
			})
		}
	}
	c.marks[mod] = m
	return m
}

// isSyncAtomicCall reports whether call invokes a sync/atomic package-level
// function (AddInt64, LoadUint32, CompareAndSwapPointer, ...).
func isSyncAtomicCall(p *Package, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := p.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return false
	}
	return fn.Pkg().Path() == "sync/atomic"
}

// typedAtomicType names the sync/atomic value type of t ("atomic.Int64",
// ...) or returns "" when t is not a typed atomic.
func typedAtomicType(t types.Type) string {
	if t == nil {
		return ""
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj() == nil || named.Obj().Pkg() == nil {
		return ""
	}
	if named.Obj().Pkg().Path() != "sync/atomic" {
		return ""
	}
	return "atomic." + named.Obj().Name()
}

// plainTypedUse reports whether a typed-atomic field selection is a bare
// value use given its parent node: method receivers (x.n.Add) and
// address-takes (&x.n) are the protocol; everything else copies the value.
func plainTypedUse(parent ast.Node, sel *ast.SelectorExpr) bool {
	switch pn := parent.(type) {
	case *ast.SelectorExpr:
		return false // base of x.n.Add or a deeper field
	case *ast.UnaryExpr:
		return pn.Op != token.AND
	}
	return true
}

// partOfSelector reports whether id sits inside a selector: as the X of
// v.Add (the sanctioned method-call form for typed package-level
// atomics) or as the Sel of a qualified pkg.Var reference, which the
// SelectorExpr case already reports once.
func partOfSelector(parent ast.Node, id *ast.Ident) bool {
	sel, ok := parent.(*ast.SelectorExpr)
	return ok && (sel.X == id || sel.Sel == id)
}

// selectedObj resolves a selector to the struct field or package-level
// variable it names, skipping method selections and locals.
func selectedObj(p *Package, sel *ast.SelectorExpr) types.Object {
	if s, ok := p.Info.Selections[sel]; ok {
		if v, ok := s.Obj().(*types.Var); ok && v.IsField() {
			return v
		}
		return nil
	}
	// Qualified identifier pkg.Var.
	if v, ok := p.Info.Uses[sel.Sel].(*types.Var); ok && isPackageLevelVar(v) {
		return v
	}
	return nil
}

// isPackageLevelVar reports whether obj is a package-scoped variable.
func isPackageLevelVar(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	if !ok || v.IsField() || v.Pkg() == nil {
		return false
	}
	return v.Parent() == v.Pkg().Scope()
}

// importsSyncAtomic reports whether the package imports sync/atomic — a fast
// path so packages without atomics skip the body walks.
func importsSyncAtomic(p *Package) bool {
	for _, file := range p.Files {
		for _, imp := range file.Imports {
			if strings.Trim(imp.Path.Value, `"`) == "sync/atomic" {
				return true
			}
		}
	}
	return false
}

// renderSel renders x.f for messages.
func renderSel(sel *ast.SelectorExpr) string {
	if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
		return id.Name + "." + sel.Sel.Name
	}
	return sel.Sel.Name
}

// posShort renders file:line with the directory trimmed.
func posShort(pos token.Position) string {
	name := pos.Filename
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		name = name[i+1:]
	}
	return fmt.Sprintf("%s:%d", name, pos.Line)
}

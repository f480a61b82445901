package analysis

import (
	"fmt"
	"go/ast"
	"strings"
)

// PoolPair enforces the scratch-pool discipline: a function that acquires a
// pooled object — directly via `pool.Get()` on a sync.Pool, or through a
// same-package acquire wrapper like core.getDisagreeing — must release it in
// the same function, directly via `pool.Put(...)` or through a release
// wrapper like core.putScratch. A Get without a Put does not crash; it
// silently converts the pool back into per-call garbage, which is exactly the
// allocator pressure the pool exists to remove on the SRK streaming path, so
// only a machine check keeps the invariant alive.
//
// Functions named get*/acquire*/new* are treated as acquire wrappers: they
// intentionally return the pooled object and transfer the Put obligation to
// their callers.
//
// Additionally, when a function Puts but never defers the Put and has
// multiple returns, a leak on early return is likely and is reported.
type PoolPair struct{}

// Name implements Checker.
func (PoolPair) Name() string { return "poolpair" }

// poolFuncSummary classifies one function's pool behaviour.
type poolFuncSummary struct {
	acquires bool // calls sync.Pool.Get or an acquire wrapper
	releases bool // calls sync.Pool.Put or a release wrapper
}

// Check implements Checker.
func (c PoolPair) Check(p *Package) []Finding {
	// Pass 1: summarize direct pool usage per function so wrapper calls can
	// be resolved in pass 2.
	direct := map[string]poolFuncSummary{}
	for _, file := range p.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			s := poolFuncSummary{}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if name, onPool := poolMethodCall(p, n); onPool {
					if name == "Get" {
						s.acquires = true
					} else if name == "Put" {
						s.releases = true
					}
				}
				return true
			})
			if s.acquires || s.releases {
				direct[fn.Name.Name] = s
			}
		}
	}
	acquireWrappers := map[string]bool{}
	releaseWrappers := map[string]bool{}
	for name, s := range direct {
		if s.acquires && !s.releases {
			acquireWrappers[name] = true
		}
		if s.releases && !s.acquires {
			releaseWrappers[name] = true
		}
	}

	var out []Finding
	for _, file := range p.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if isAcquireWrapperName(fn.Name.Name) {
				continue // constructor-style: callers own the Put
			}
			var (
				firstGet    ast.Node
				puts        int
				deferredPut bool
				returns     int
			)
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				switch node := n.(type) {
				case *ast.ReturnStmt:
					returns++
				case *ast.DeferStmt:
					if isRelease(p, node.Call, releaseWrappers) {
						puts++
						deferredPut = true
						return false
					}
				case *ast.FuncLit:
					return false // closures have their own lifetime
				case *ast.CallExpr:
					if isRelease(p, node, releaseWrappers) {
						puts++
					}
					if firstGet == nil && isAcquire(p, node, acquireWrappers) {
						firstGet = node
					}
				}
				return true
			})
			if firstGet == nil {
				continue
			}
			if puts == 0 {
				out = append(out, Finding{
					Pos:     p.Mod.Fset.Position(firstGet.Pos()),
					Checker: c.Name(),
					Message: fmt.Sprintf("pool Get in %s has no matching Put on any path; release the scratch object (ideally with defer)", funcName(fn)),
				})
			} else if !deferredPut && returns > 1 {
				out = append(out, Finding{
					Pos:     p.Mod.Fset.Position(firstGet.Pos()),
					Checker: c.Name(),
					Message: fmt.Sprintf("pool Get in %s is released without defer but the function has %d returns; an early return leaks the scratch object", funcName(fn), returns),
				})
			}
		}
	}
	return out
}

// poolMethodCall reports whether n is a call `x.Get()` / `x.Put(...)` with x
// of type sync.Pool, returning the method name.
func poolMethodCall(p *Package, n ast.Node) (string, bool) {
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return "", false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	if sel.Sel.Name != "Get" && sel.Sel.Name != "Put" {
		return "", false
	}
	if !isSyncPool(p.Info.TypeOf(sel.X)) {
		return "", false
	}
	return sel.Sel.Name, true
}

// isAcquire reports whether the call is a pool Get or a call to a
// same-package acquire wrapper.
func isAcquire(p *Package, call *ast.CallExpr, acquireWrappers map[string]bool) bool {
	if name, onPool := poolMethodCall(p, call); onPool {
		return name == "Get"
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && acquireWrappers[id.Name]
}

// isRelease reports whether the call is a pool Put or a call to a
// same-package release wrapper.
func isRelease(p *Package, call *ast.CallExpr, releaseWrappers map[string]bool) bool {
	if name, onPool := poolMethodCall(p, call); onPool {
		return name == "Put"
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && releaseWrappers[id.Name]
}

// isAcquireWrapperName reports constructor-style names whose contract is
// "returns a pooled object; the caller releases it".
func isAcquireWrapperName(name string) bool {
	lower := strings.ToLower(name)
	return strings.HasPrefix(lower, "get") || strings.HasPrefix(lower, "acquire") || strings.HasPrefix(lower, "new")
}

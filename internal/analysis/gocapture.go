package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// GoCapture guards the spawn-site hygiene of the striped counters
// (core/parallel.go): a `go func(){...}` closure shares every captured variable with its
// spawner, and the two patterns that have bitten concurrent Go code for a
// decade are (1) the spawner (or the loop it sits in) mutating a captured
// variable while the goroutine reads it, and (2) pooled scratch captured by a
// goroutine that can outlive the Put, so the pool hands the same object to a
// concurrent solve — the exact violation the disjoint-stripe contract of
// core/parallel.go exists to prevent.
//
// Rules, per `go` statement with a closure literal:
//
//   - write-after-spawn: a captured variable assigned (or ++/--'d) by the
//     enclosing function after the spawn races with the goroutine's reads.
//     When the spawn sits in a loop, a variable declared outside the loop is
//     racy if written anywhere in the loop body; a variable declared inside
//     the loop is fresh per iteration (Go ≥1.22 loop scoping) and only
//     writes after the spawn in the same iteration race.
//
//   - pool-escape: a captured variable holding pooled scratch (assigned from
//     a sync.Pool Get or a get*/acquire* wrapper) in a function that also
//     releases it (Put or a put*/release* wrapper) must be joined — a
//     *.Wait() after the spawn — before the release can be safe; without a
//     join the goroutine may still be striping the scratch when the pool
//     recycles it.
//
// Safe idioms stay silent: passing loop state as closure *arguments*
// (stripedMaskCount), joining with wg.Wait() before a deferred release, and
// captures that are never written after the spawn.
type GoCapture struct{}

// Name implements Checker.
func (GoCapture) Name() string { return "gocapture" }

// Check implements Checker.
func (c GoCapture) Check(p *Package) []Finding {
	var out []Finding
	for _, file := range p.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			out = append(out, c.checkFunc(p, fd)...)
		}
	}
	return out
}

// goSpawn is one `go func(){...}` site with its enclosing loop, if any.
type goSpawn struct {
	stmt *ast.GoStmt
	lit  *ast.FuncLit
	loop ast.Node // innermost enclosing for/range statement, or nil
}

// checkFunc applies both rules to one function body.
func (c GoCapture) checkFunc(p *Package, fd *ast.FuncDecl) []Finding {
	spawns := collectSpawns(fd.Body)
	if len(spawns) == 0 {
		return nil
	}
	writes := varWrites(p, fd.Body)
	pooled := pooledLocals(p, fd.Body)
	released := releasedLocals(p, fd.Body)
	waits := waitPositions(fd.Body)

	var out []Finding
	for _, sp := range spawns {
		for v, uses := range capturedVars(p, sp.lit) {
			if w := racyWrite(v, writes, sp); w.IsValid() {
				out = append(out, Finding{
					Pos:     p.Mod.Fset.Position(uses[0]),
					Checker: c.Name(),
					Message: fmt.Sprintf("goroutine in %s captures %q, which the spawner writes at %s after the spawn; pass it as an argument or synchronize the write", funcName(fd), v.Name(), posShort(p.Mod.Fset.Position(w))),
				})
			}
			if pooled[v] && released[v] && !joinedAfter(waits, sp.stmt.End()) {
				out = append(out, Finding{
					Pos:     p.Mod.Fset.Position(uses[0]),
					Checker: c.Name(),
					Message: fmt.Sprintf("goroutine in %s captures pooled scratch %q, which the function releases without joining the goroutine first (no *.Wait() after the spawn); the pool may recycle it mid-use", funcName(fd), v.Name()),
				})
			}
		}
	}
	return out
}

// collectSpawns finds go-closure statements and their innermost loops.
func collectSpawns(body *ast.BlockStmt) []goSpawn {
	var spawns []goSpawn
	var loops []ast.Node
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		ast.Inspect(n, func(m ast.Node) bool {
			switch s := m.(type) {
			case *ast.ForStmt, *ast.RangeStmt:
				if m == n {
					return true // the loop node we recursed on
				}
				loops = append(loops, s)
				walk(loopBody(s))
				loops = loops[:len(loops)-1]
				return false
			case *ast.GoStmt:
				if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
					var loop ast.Node
					if len(loops) > 0 {
						loop = loops[len(loops)-1]
					}
					spawns = append(spawns, goSpawn{stmt: s, lit: lit, loop: loop})
				}
			}
			return true
		})
	}
	walk(body)
	return spawns
}

// loopBody returns the body block of a for or range statement.
func loopBody(n ast.Node) ast.Node {
	switch s := n.(type) {
	case *ast.ForStmt:
		return s.Body
	case *ast.RangeStmt:
		return s.Body
	}
	return n
}

// capturedVars returns the local variables a closure references but does not
// declare, with their use positions inside the literal (first use reported).
func capturedVars(p *Package, lit *ast.FuncLit) map[*types.Var][]token.Pos {
	caps := map[*types.Var][]token.Pos{}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := p.Info.Uses[id].(*types.Var)
		if !ok || v.IsField() || isPackageLevelVar(v) {
			return true
		}
		// Declared inside the literal (params, locals): not a capture.
		if v.Pos() >= lit.Pos() && v.Pos() < lit.End() {
			return true
		}
		caps[v] = append(caps[v], id.Pos())
		return true
	})
	return caps
}

// varWrites maps each local variable to the positions of its assignments and
// ++/-- in the function body, closure bodies excluded (a goroutine writing
// its own captures is a different protocol, synchronized by the spawner's
// join; flow through captured writes is out of scope for a lint).
func varWrites(p *Package, body *ast.BlockStmt) map[*types.Var][]token.Pos {
	writes := map[*types.Var][]token.Pos{}
	record := func(e ast.Expr) {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return
		}
		if v, ok := p.Info.Uses[id].(*types.Var); ok && !v.IsField() {
			writes[v] = append(writes[v], id.Pos())
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.AssignStmt:
			for _, lhs := range node.Lhs {
				record(lhs)
			}
		case *ast.IncDecStmt:
			record(node.X)
		}
		return true
	})
	return writes
}

// racyWrite returns the position of a write to v that races with the spawn,
// or token.NoPos.
func racyWrite(v *types.Var, writes map[*types.Var][]token.Pos, sp goSpawn) token.Pos {
	declaredInLoop := sp.loop != nil && v.Pos() >= sp.loop.Pos() && v.Pos() < sp.loop.End()
	for _, w := range writes[v] {
		if w > sp.stmt.End() {
			return w
		}
		// Inside the loop, before the spawn: the next iteration's write
		// races with this iteration's goroutine — unless the variable is
		// loop-scoped and therefore fresh per iteration.
		if sp.loop != nil && !declaredInLoop && w >= sp.loop.Pos() && w < sp.loop.End() {
			return w
		}
	}
	return token.NoPos
}

// pooledLocals maps local variables assigned from a pool acquire (sync.Pool
// Get or a get*/acquire* wrapper) in this body.
func pooledLocals(p *Package, body *ast.BlockStmt) map[*types.Var]bool {
	pooled := map[*types.Var]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, rhs := range as.Rhs {
			if i >= len(as.Lhs) {
				break
			}
			if !isAcquireExpr(p, rhs) {
				continue
			}
			if id, ok := as.Lhs[i].(*ast.Ident); ok {
				if v, ok := p.Info.Defs[id].(*types.Var); ok {
					pooled[v] = true
				} else if v, ok := p.Info.Uses[id].(*types.Var); ok {
					pooled[v] = true
				}
			}
		}
		return true
	})
	return pooled
}

// isAcquireExpr reports whether e acquires from a pool: x.Get() on a
// sync.Pool (possibly type-asserted) or a get*/acquire* call.
func isAcquireExpr(p *Package, e ast.Expr) bool {
	e = ast.Unparen(e)
	if ta, ok := e.(*ast.TypeAssertExpr); ok {
		e = ta.X
	}
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	if name, onPool := poolMethodCall(p, call); onPool {
		return name == "Get"
	}
	if id, ok := call.Fun.(*ast.Ident); ok {
		return isAcquireWrapperName(id.Name) && !isTypeConversion(p, call)
	}
	return false
}

// isTypeConversion reports whether call is actually a conversion T(x).
func isTypeConversion(p *Package, call *ast.CallExpr) bool {
	tv, ok := p.Info.Types[call.Fun]
	return ok && tv.IsType()
}

// releasedLocals maps local variables passed to a pool release (sync.Pool
// Put or a put*/release* wrapper) anywhere in the body, deferred included.
func releasedLocals(p *Package, body *ast.BlockStmt) map[*types.Var]bool {
	released := map[*types.Var]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		isPut := false
		if name, onPool := poolMethodCall(p, call); onPool {
			isPut = name == "Put"
		} else if id, ok := call.Fun.(*ast.Ident); ok {
			isPut = isReleaseWrapperName(id.Name)
		}
		if !isPut {
			return true
		}
		for _, arg := range call.Args {
			if id, ok := ast.Unparen(arg).(*ast.Ident); ok {
				if v, ok := p.Info.Uses[id].(*types.Var); ok {
					released[v] = true
				}
			}
		}
		return true
	})
	return released
}

// isReleaseWrapperName mirrors isAcquireWrapperName for the release side.
func isReleaseWrapperName(name string) bool {
	lower := toLower(name)
	return hasPrefix(lower, "put") || hasPrefix(lower, "release") || hasPrefix(lower, "free")
}

// waitPositions records the positions of *.Wait() calls in the body.
func waitPositions(body *ast.BlockStmt) []token.Pos {
	var waits []token.Pos
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Wait" {
			waits = append(waits, call.Pos())
		}
		return true
	})
	return waits
}

// joinedAfter reports whether any Wait() occurs after pos.
func joinedAfter(waits []token.Pos, pos token.Pos) bool {
	for _, w := range waits {
		if w > pos {
			return true
		}
	}
	return false
}

// Tiny ASCII helpers: the checker deliberately avoids importing strings for
// two prefixes... except it doesn't need to be clever. See below.
func toLower(s string) string {
	b := []byte(s)
	for i := range b {
		if b[i] >= 'A' && b[i] <= 'Z' {
			b[i] += 'a' - 'A'
		}
	}
	return string(b)
}

func hasPrefix(s, prefix string) bool {
	return len(s) >= len(prefix) && s[:len(prefix)] == prefix
}

// Package analysis is rkvet's engine: a stdlib-only static-analysis driver
// (go/parser + go/types + go/importer, no external modules) that loads every
// package of this module and runs repo-specific checkers enforcing the
// invariants relative keys depend on:
//
//   - maporder  — map iteration order must never reach key construction,
//     posting-list order, or serialized output (key determinism, §5);
//   - poolpair  — every pooled scratch-bitset Get must have a matching Put
//     (the sync.Pool discipline the SRK hot path relies on);
//   - floateq   — floating-point ==/!= only inside approved tolerance
//     helpers (the Budget scale-aware tolerance lesson, PR 1);
//   - dropperr  — no silently discarded errors outside tests;
//   - lockcheck — struct fields annotated "// guarded by <mu>" are only
//     touched by methods that lock that mutex (or are *Locked helpers);
//   - obsreg    — metric names passed to the obs package-level constructors
//     are compile-time constants, each registered exactly once module-wide
//     (the global registry panics at runtime on duplicates).
//
// The interprocedural suite builds a module-wide call graph (callgraph.go)
// and reasons across function and package boundaries:
//
//   - ctxflow     — ctx-carrying functions must thread their ctx: no calls
//     to a plain sibling when a ...Ctx variant exists, and no
//     context.Background() where it can swallow a caller's deadline;
//   - atomicfield — a location touched via sync/atomic anywhere must never
//     be accessed plainly elsewhere, module-wide (the exact search's
//     shared best-root bound);
//   - gocapture   — `go` closures must not capture variables the spawner
//     writes after the spawn, nor pooled scratch released without a join;
//   - hotalloc    — functions marked //rkvet:noalloc (and everything they
//     statically reach) must be free of heap-forcing constructs.
//
// Intentional violations are documented in place with a suppression comment
//
//	//rkvet:ignore <checker>[,<checker>...] <reason>
//
// which applies to findings on the comment's line and on the line below it.
// A bare //rkvet:ignore suppresses every checker (use sparingly).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"time"
)

// Finding is one checker hit.
type Finding struct {
	Pos     token.Position
	Checker string
	Message string
}

// String renders the finding in the canonical "file:line: [checker] message"
// form consumed by editors and CI logs.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Checker, f.Message)
}

// Checker inspects one type-checked package and reports findings. Checkers
// must not retain the package.
type Checker interface {
	Name() string
	Check(p *Package) []Finding
}

// AllCheckers returns the full suite in stable order.
func AllCheckers() []Checker {
	return []Checker{
		MapOrder{},
		PoolPair{},
		FloatEq{},
		DropErr{},
		LockCheck{},
		NewObsReg(),
		NewCtxFlow(),
		NewAtomicField(),
		GoCapture{},
		NewHotAlloc(),
	}
}

// SyntacticCheckers returns the checkers that work file-locally, without the
// module call graph — the lint-fast tier.
func SyntacticCheckers() []Checker {
	return AllCheckers()[:6]
}

// DeepCheckers returns the call-graph-backed checkers — the lint-deep tier.
func DeepCheckers() []Checker {
	return AllCheckers()[6:]
}

// CheckerNames lists the registered checker names.
func CheckerNames() []string {
	var names []string
	for _, c := range AllCheckers() {
		names = append(names, c.Name())
	}
	return names
}

// Run executes the given checkers over every package of the module, drops
// suppressed findings, and returns the rest sorted by position.
func Run(mod *Module, checkers []Checker) []Finding {
	findings, _ := RunTimed(mod, checkers)
	return findings
}

// CheckerTiming records one checker's wall time across the whole module.
type CheckerTiming struct {
	Checker string
	Elapsed time.Duration
}

// RunTimed is Run plus per-checker wall times (surfaced by rkvet -v). The
// loop is checker-outer so each checker's module sweep is timed as one unit;
// suppressions are collected once per package and shared, and the first
// call-graph checker to run pays the graph construction (visible in its
// time — that cost is real and belongs to the deep tier).
func RunTimed(mod *Module, checkers []Checker) ([]Finding, []CheckerTiming) {
	sups := make([]suppressions, len(mod.Pkgs))
	for i, p := range mod.Pkgs {
		sups[i] = collectSuppressions(p)
	}
	var out []Finding
	timings := make([]CheckerTiming, 0, len(checkers))
	for _, c := range checkers {
		start := time.Now()
		for i, p := range mod.Pkgs {
			for _, f := range c.Check(p) {
				if sups[i].allows(c.Name(), f.Pos) {
					out = append(out, f)
				}
			}
		}
		timings = append(timings, CheckerTiming{Checker: c.Name(), Elapsed: time.Since(start)})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Checker < b.Checker
	})
	return out, timings
}

// suppressions maps file → line → set of suppressed checker names ("" means
// all checkers).
type suppressions map[string]map[int]map[string]bool

const ignoreMarker = "rkvet:ignore"

// collectSuppressions scans every comment of the package for rkvet:ignore
// markers. A marker suppresses matching findings on its own line and on the
// following line, so both trailing and standalone comment styles work.
func collectSuppressions(p *Package) suppressions {
	sup := suppressions{}
	for _, file := range p.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				idx := strings.Index(c.Text, ignoreMarker)
				if idx < 0 {
					continue
				}
				pos := p.Mod.Fset.Position(c.Pos())
				names := parseIgnoreList(c.Text[idx+len(ignoreMarker):])
				byLine := sup[pos.Filename]
				if byLine == nil {
					byLine = map[int]map[string]bool{}
					sup[pos.Filename] = byLine
				}
				for _, line := range []int{pos.Line, pos.Line + 1} {
					set := byLine[line]
					if set == nil {
						set = map[string]bool{}
						byLine[line] = set
					}
					for _, n := range names {
						set[n] = true
					}
				}
			}
		}
	}
	return sup
}

// parseIgnoreList extracts the checker list from the text following the
// marker: the first whitespace-delimited field is a comma-separated list of
// checker names; everything after it is a free-text reason. An empty list
// means "all checkers".
func parseIgnoreList(text string) []string {
	fields := strings.Fields(text)
	if len(fields) == 0 {
		return []string{""}
	}
	known := map[string]bool{}
	for _, n := range CheckerNames() {
		known[n] = true
	}
	var names []string
	for _, n := range strings.Split(fields[0], ",") {
		if known[n] {
			names = append(names, n)
		}
	}
	if len(names) == 0 {
		// First field is not a checker name: treat the whole text as a
		// reason and suppress everything.
		return []string{""}
	}
	return names
}

// allows reports whether a finding survives the suppression set.
func (s suppressions) allows(checker string, pos token.Position) bool {
	byLine, ok := s[pos.Filename]
	if !ok {
		return true
	}
	set, ok := byLine[pos.Line]
	if !ok {
		return true
	}
	return !set[checker] && !set[""]
}

// --- shared AST/type helpers used by several checkers ---

// funcName renders the name of the function or method declaring a node, for
// messages.
func funcName(fn *ast.FuncDecl) string {
	if fn.Recv != nil && len(fn.Recv.List) == 1 {
		return recvTypeName(fn.Recv.List[0].Type) + "." + fn.Name.Name
	}
	return fn.Name.Name
}

// recvTypeName returns the base type name of a method receiver expression.
func recvTypeName(e ast.Expr) string {
	switch t := e.(type) {
	case *ast.StarExpr:
		return recvTypeName(t.X)
	case *ast.Ident:
		return t.Name
	case *ast.IndexExpr: // generic receiver T[P]
		return recvTypeName(t.X)
	case *ast.IndexListExpr:
		return recvTypeName(t.X)
	}
	return ""
}

// isErrorType reports whether t is (or contains, for tuples at position i)
// the error interface.
func isErrorType(t types.Type) bool {
	if t == nil {
		return false
	}
	named, ok := t.(*types.Named)
	if ok && named.Obj() != nil && named.Obj().Name() == "error" && named.Obj().Pkg() == nil {
		return true
	}
	iface, ok := t.Underlying().(*types.Interface)
	if !ok {
		return false
	}
	errType, _ := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	return errType != nil && types.Implements(t, errType) && iface.NumMethods() > 0
}

// isFloat reports whether t's core type is a floating-point basic type.
func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	if !ok {
		return false
	}
	return b.Info()&types.IsFloat != 0
}

// isSyncPool reports whether t is sync.Pool or *sync.Pool.
func isSyncPool(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj() == nil || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path() == "sync" && named.Obj().Name() == "Pool"
}

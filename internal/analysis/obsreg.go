package analysis

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// ObsReg enforces the obs-registry discipline: the process-global metric
// registry (internal/obs's Default, used by the package-level NewCounter /
// NewGauge / NewHistogram constructors) panics at runtime on a duplicate
// metric name, so a name registered from two places is a boot-time crash
// waiting on import order. The checker proves the invariant statically:
// every package-level constructor call must pass a compile-time constant
// metric name, and each name must appear exactly once across the module.
//
// Method-form constructors (r.NewCounter on an explicit *obs.Registry) are
// deliberately out of scope: only the shared Default registry has the
// cross-package collision hazard. They carry every service.Server's own
// series, registered in a private registry per server, and throwaway
// benchsuite registries. A server's /metrics serves its registry beside
// Default, so those names must not collide with Default's either; the service
// test TestShedAndCacheSeriesArePerServer pins that each family appears once
// in a server's scrape. The obs package itself is skipped: it defines the
// constructors.
//
// ObsReg is stateful (names seen so far across packages); obtain a fresh
// instance per run via NewObsReg, as AllCheckers does.
type ObsReg struct {
	seen map[string]token.Position
}

// NewObsReg returns a fresh checker with an empty registration set.
func NewObsReg() *ObsReg {
	return &ObsReg{seen: map[string]token.Position{}}
}

// Name implements Checker.
func (*ObsReg) Name() string { return "obsreg" }

// obsConstructorNames are the package-level constructors that register on the
// global Default registry. Matching is by name so the checker also fires on
// fixture packages, which may import only stdlib and so declare local
// stand-ins with these names.
var obsConstructorNames = map[string]bool{
	"NewCounter":      true,
	"NewCounterVec":   true,
	"NewGauge":        true,
	"NewGaugeFunc":    true,
	"NewHistogram":    true,
	"NewHistogramVec": true,
}

// Check implements Checker.
func (c *ObsReg) Check(p *Package) []Finding {
	if strings.HasSuffix(p.ImportPath, "internal/obs") {
		return nil
	}
	var out []Finding
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(p, call)
			if fn == nil || !obsConstructorNames[fn.Name()] {
				return true
			}
			if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
				return true // a method: an explicit non-Default registry
			}
			pos := p.Mod.Fset.Position(call.Pos())
			name, ok := constantString(p, call.Args)
			if !ok {
				out = append(out, Finding{
					Pos:     pos,
					Checker: c.Name(),
					Message: "metric name passed to " + fn.Name() + " must be a compile-time constant string",
				})
				return true
			}
			if first, dup := c.seen[name]; dup {
				out = append(out, Finding{
					Pos:     pos,
					Checker: c.Name(),
					Message: "metric \"" + name + "\" already registered at " +
						first.Filename + ":" + strconv.Itoa(first.Line) + "; the global registry panics on duplicates",
				})
				return true
			}
			c.seen[name] = pos
			return true
		})
	}
	return out
}

// calleeFunc resolves a call's callee to the function object it names, or nil
// when the callee is not a plain function reference (method values, closures,
// conversions).
func calleeFunc(p *Package, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := p.Info.Uses[id].(*types.Func)
	return fn
}

// constantString reports the constant string value of a call's first
// argument, if it has one.
func constantString(p *Package, args []ast.Expr) (string, bool) {
	if len(args) == 0 {
		return "", false
	}
	tv, ok := p.Info.Types[args[0]]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}

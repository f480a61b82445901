package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
	"testing"
)

// unusedExports lists, with the reason each stays, every exported function
// and method under internal/ that no non-test file of the module uses and
// no exemption of TestExportsHaveNonTestUsers covers. A name is the package
// path below internal/, then the receiver type for a method.
var unusedExports = map[string]string{
	"core.ViolationsBrute": "test oracle: the row-by-row count Violations is checked against",
	"core.IsMinimal":       "test oracle: subset-minimality of the exact and greedy keys",

	"core.ReduceMSC":                 "Theorem 1 reduction: set cover to relative key, for reduction_test",
	"core.CoverToKey":                "Theorem 1 reduction: a cover read back as a key",
	"core.KeyToCover":                "Theorem 1 reduction: a key read back as a cover",
	"core.MSCInstance.ExactMinCover": "Theorem 1 reduction: the optimum ExactMinKey is checked against",
	"core.MSCInstance.GreedyCover":   "Theorem 1 reduction: the greedy cover SRK is checked against",

	"faultinject.New":                     "test hook: the seeded injector of the chaos suites",
	"faultinject.NewTornWriter":           "test hook: a log writer torn mid-record, for recovery tests",
	"faultinject.WrapSolve":               "test hook: solver latency, errors and panics, for the robustness tests",
	"faultinject.CutConn.Read":            "test hook: a stream cut mid-read",
	"faultinject.FlakyDialer.DialContext": "test hook: refused dials, for the replica chaos tests",
	"faultinject.FlakyDialer.Dials":       "test hook: the dial count the replica chaos tests assert",
	"replica.Follower.Reconnects":         "test hook: the reconnect count the replica chaos tests assert",
	"replica.Follower.SnapshotCatchups":   "test hook: the catch-up count the follower tests assert",
	"replica.Hub.Subscribers":             "test hook: the subscriber count the hub tests wait on",

	"model.Tree.Depth":           "accessor TestTreeDepthCap asserts the depth cap through",
	"model.Tree.NumNodes":        "accessor TestTreeDepthCap asserts the tree's size through",
	"model.GBDT.Prob":            "accessor TestGBDTBeatsGuessing checks Score, Prob and Predict agree through",
	"formal.NewTreeExplainer":    "constructor of the single-tree formal explainer its tests check by brute force",
	"explain/ids.Rule.Precision": "accessor TestFitSizeLimited checks each fitted rule's training precision through",
	"sat.Solver.Value":           "accessor the sat tests and FuzzSolver check each model against its clauses through",

	"obs.NewGauge":           "metric API: a gauge in the Default registry, which the obs tests register",
	"obs.NewGaugeFunc":       "metric API: a sampled gauge in the Default registry, which the obs tests register",
	"obs.Histogram.Count":    "metric API: the observation count the obs tests read",
	"obs.Gauge.Value":        "metric API: the gauge value the obs tests read",
	"obs.Registry.WriteProm": "metric API: one registry's exposition, which the obs and hub tests read",

	"bitset.New":              "constructor the bitset tests build sets with; non-test code uses NewReserved",
	"analysis.Run":            "RunTimed without timings: the checker tests run the suite through it",
	"analysis.Finding.String": "fmt.Stringer: cmd/rkvet prints each finding with fmt.Println",
}

// TestExportsHaveNonTestUsers keeps unused exports from growing back. It
// finds the exported functions and methods under internal/ that no non-test
// file of the module uses, and fails on one missing from unusedExports, and
// on a listed one that is now used or gone. Exempt are: the functions the
// benchmark module _perfbench names as pkg.Name (not methods: a bare .Name
// selector there would exempt every method of that name, in packages
// _perfbench never imports too); methods whose name an interface of the
// module declares, or named Error; methods of the types the root package
// aliases and of bitset.Set, which its Context hands out, all public API;
// and exported methods of unexported types, which exist to satisfy
// standard-library interfaces.
func TestExportsHaveNonTestUsers(t *testing.T) {
	mod, err := loadModule()
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	found := unusedExportsOf(t, mod)
	for name := range found {
		if _, ok := unusedExports[name]; !ok {
			t.Errorf("%s: exported, yet no non-test code uses it; delete it, or list it in unusedExports with the reason it stays", name)
		}
	}
	for name := range unusedExports {
		if !found[name] {
			t.Errorf("%s: listed in unusedExports, but now used or gone; drop it from the list", name)
		}
	}
}

// unusedExportsOf runs the scan TestExportsHaveNonTestUsers describes.
func unusedExportsOf(t *testing.T, mod *Module) map[string]bool {
	t.Helper()
	internal := mod.Path + "/internal/"
	used := map[types.Object]bool{}
	ifaceMethods := map[string]bool{"Error": true}
	publicTypes := map[*types.TypeName]bool{}
	for _, p := range mod.Pkgs {
		for _, obj := range p.Info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				obj = fn.Origin()
			}
			used[obj] = true
		}
		for _, tv := range p.Info.Types {
			if it, ok := tv.Type.(*types.Interface); ok && tv.IsType() {
				for i := 0; i < it.NumMethods(); i++ {
					ifaceMethods[it.Method(i).Name()] = true
				}
			}
		}
		scope := p.Types.Scope()
		switch p.ImportPath {
		case mod.Path:
			for _, name := range scope.Names() {
				if tn, ok := scope.Lookup(name).(*types.TypeName); ok && tn.IsAlias() {
					if n, ok := types.Unalias(tn.Type()).(*types.Named); ok {
						publicTypes[n.Origin().Obj()] = true
					}
				}
			}
		case internal + "bitset":
			publicTypes[scope.Lookup("Set").(*types.TypeName)] = true
		}
	}
	funcs := perfbenchFuncs(t, filepath.Join(mod.Dir, "_perfbench"))
	found := map[string]bool{}
	for _, p := range mod.Pkgs {
		rel, ok := strings.CutPrefix(p.ImportPath, internal)
		if !ok {
			continue
		}
		for _, f := range p.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				fn := p.Info.Defs[fd.Name].(*types.Func)
				if used[fn] {
					continue
				}
				recv := fn.Type().(*types.Signature).Recv()
				if recv == nil {
					if !funcs[p.ImportPath+"."+fn.Name()] {
						found[rel+"."+fn.Name()] = true
					}
					continue
				}
				rt := recv.Type()
				if ptr, ok := rt.(*types.Pointer); ok {
					rt = ptr.Elem()
				}
				tn := rt.(*types.Named).Origin().Obj()
				if !tn.Exported() || publicTypes[tn] || ifaceMethods[fn.Name()] {
					continue
				}
				found[rel+"."+tn.Name()+"."+fn.Name()] = true
			}
		}
	}
	return found
}

// perfbenchFuncs parses the benchmark module's sources, which Load skips,
// and returns each pkg.Name selector on an imported package they hold, as
// importpath.Name.
func perfbenchFuncs(t *testing.T, dir string) map[string]bool {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no benchmark sources in %s (err %v)", dir, err)
	}
	funcs := map[string]bool{}
	fset := token.NewFileSet()
	for _, fn := range files {
		f, err := parser.ParseFile(fset, fn, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		imports := map[string]string{}
		for _, is := range f.Imports {
			path := strings.Trim(is.Path.Value, "`\"")
			name := filepath.Base(path)
			if is.Name != nil {
				name = is.Name.Name
			}
			imports[name] = path
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if id, ok := sel.X.(*ast.Ident); ok && imports[id.Name] != "" {
				funcs[imports[id.Name]+"."+sel.Sel.Name] = true
			}
			return true
		})
	}
	return funcs
}

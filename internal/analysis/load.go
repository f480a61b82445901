package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Module is a loaded, type-checked Go module.
type Module struct {
	Dir  string // absolute module root (directory holding go.mod)
	Path string // module path from go.mod
	Fset *token.FileSet
	Pkgs []*Package // every package in the module, sorted by import path

	// cg memoizes the call graph so every interprocedural checker of a run
	// shares one construction pass (built lazily by Module.CallGraph).
	cg *CallGraph
}

// Package is one type-checked package of the module. Test files are not
// loaded: the invariants rkvet enforces live in production code, and dropperr
// explicitly exempts tests.
type Package struct {
	Mod        *Module
	ImportPath string
	Dir        string
	Filenames  []string
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
}

// FindModuleRoot walks upward from dir to the nearest directory containing
// go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("analysis: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// Load parses and type-checks every package under the module rooted at dir.
// Out-of-module imports (the standard library) are resolved with the stdlib
// source importer, keeping the driver free of external dependencies.
func Load(dir string) (*Module, error) {
	root, err := FindModuleRoot(dir)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	mod := &Module{Dir: root, Path: modPath, Fset: token.NewFileSet()}

	dirs, err := packageDirs(root)
	if err != nil {
		return nil, err
	}
	ld := newLoader(mod)
	for _, d := range dirs {
		ip := importPathFor(mod, d)
		if _, err := ld.load(ip, d); err != nil {
			return nil, fmt.Errorf("analysis: %s: %w", ip, err)
		}
	}
	for _, p := range ld.done {
		if p != nil {
			mod.Pkgs = append(mod.Pkgs, p)
		}
	}
	sort.Slice(mod.Pkgs, func(i, j int) bool { return mod.Pkgs[i].ImportPath < mod.Pkgs[j].ImportPath })
	return mod, nil
}

// LoadPackageDir type-checks the single directory dir as a standalone
// package whose imports may only be stdlib packages, under the given import
// path (scoped checkers like maporder key off the path). It exists for
// checker fixture tests, whose files live under testdata and are invisible
// to Load.
func LoadPackageDir(dir, importPath string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	mod := &Module{Dir: abs, Path: importPath, Fset: token.NewFileSet()}
	ld := newLoader(mod)
	p, err := ld.load(importPath, abs)
	if err != nil {
		return nil, err
	}
	mod.Pkgs = []*Package{p}
	return p, nil
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("analysis: no module directive in %s", gomod)
}

// packageDirs lists every directory under root holding at least one
// non-test .go file, skipping VCS metadata and testdata trees.
func packageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		files, err := goSources(path)
		if err != nil {
			return err
		}
		if len(files) > 0 {
			dirs = append(dirs, path)
		}
		return nil
	})
	return dirs, err
}

// goSources lists the non-test .go files of dir, sorted.
func goSources(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") {
			continue
		}
		files = append(files, filepath.Join(dir, name))
	}
	sort.Strings(files)
	return files, nil
}

// importPathFor maps a module directory to its import path.
func importPathFor(mod *Module, dir string) string {
	rel, err := filepath.Rel(mod.Dir, dir)
	if err != nil || rel == "." {
		return mod.Path
	}
	return mod.Path + "/" + filepath.ToSlash(rel)
}

// loader type-checks module packages on demand, memoized, resolving stdlib
// imports through the source importer.
type loader struct {
	mod     *Module
	std     types.Importer
	done    map[string]*Package       // import path → loaded package (module only)
	stdPkgs map[string]*types.Package // import path → stdlib package
	loading map[string]bool           // cycle guard
}

func newLoader(mod *Module) *loader {
	// Disable cgo so stdlib packages with native variants (net, os/user)
	// type-check from their pure-Go files.
	build.Default.CgoEnabled = false
	return &loader{
		mod:     mod,
		std:     importer.ForCompiler(mod.Fset, "source", nil),
		done:    map[string]*Package{},
		stdPkgs: map[string]*types.Package{},
		loading: map[string]bool{},
	}
}

// Import implements types.Importer over both module-local and stdlib paths.
func (ld *loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if p, ok := ld.done[path]; ok {
		return p.Types, nil
	}
	if path == ld.mod.Path || strings.HasPrefix(path, ld.mod.Path+"/") {
		dir := filepath.Join(ld.mod.Dir, filepath.FromSlash(strings.TrimPrefix(strings.TrimPrefix(path, ld.mod.Path), "/")))
		p, err := ld.load(path, dir)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	if tp, ok := ld.stdPkgs[path]; ok {
		return tp, nil
	}
	tp, err := ld.std.Import(path)
	if err != nil {
		return nil, err
	}
	ld.stdPkgs[path] = tp
	return tp, nil
}

// load parses and type-checks the package in dir, memoized by import path.
func (ld *loader) load(path, dir string) (*Package, error) {
	if p, ok := ld.done[path]; ok {
		return p, nil
	}
	if ld.loading[path] {
		return nil, fmt.Errorf("import cycle through %s", path)
	}
	ld.loading[path] = true
	defer delete(ld.loading, path)

	filenames, err := goSources(dir)
	if err != nil {
		return nil, err
	}
	if len(filenames) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	var files []*ast.File
	for _, fn := range filenames {
		f, err := parser.ParseFile(ld.mod.Fset, fn, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	var typeErrs []error
	conf := types.Config{
		Importer: ld,
		Error:    func(err error) { typeErrs = append(typeErrs, err) },
	}
	tp, _ := conf.Check(path, ld.mod.Fset, files, info) //rkvet:ignore dropperr type errors are accumulated by conf.Error and reported together below
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("type errors (first of %d): %v", len(typeErrs), typeErrs[0])
	}
	p := &Package{
		Mod:        ld.mod,
		ImportPath: path,
		Dir:        dir,
		Filenames:  filenames,
		Files:      files,
		Types:      tp,
		Info:       info,
	}
	ld.done[path] = p
	return p, nil
}

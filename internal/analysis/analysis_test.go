package analysis

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// fixtureCases pairs each checker with its testdata fixture. The maporder
// fixture is loaded under a key-producing import path so the scope gate is
// open; the others use a neutral path.
var fixtureCases = []struct {
	checker    Checker
	importPath string
}{
	{MapOrder{}, "fixture/internal/core/maporder"},
	{PoolPair{}, "fixture/poolpair"},
	{FloatEq{}, "fixture/floateq"},
	{DropErr{}, "fixture/dropperr"},
	{LockCheck{}, "fixture/lockcheck"},
	{NewObsReg(), "fixture/obsreg"},
	{NewCtxFlow(), "fixture/ctxflow"},
	{NewAtomicField(), "fixture/atomicfield"},
	{GoCapture{}, "fixture/gocapture"},
	{NewHotAlloc(), "fixture/hotalloc"},
}

// wantRe matches the expectation comments planted in fixtures:
// `// want "substring of the finding message"`.
var wantRe = regexp.MustCompile(`//\s*want "([^"]*)"`)

// expectation is one planted `// want` comment, consumed as findings match.
type expectation struct {
	file    string
	line    int
	substr  string
	matched bool
}

// parseWants scans fixture sources for want comments.
func parseWants(t *testing.T, filenames []string) []*expectation {
	t.Helper()
	var wants []*expectation
	for _, fn := range filenames {
		data, err := os.ReadFile(fn)
		if err != nil {
			t.Fatalf("reading fixture %s: %v", fn, err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRe.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			wants = append(wants, &expectation{file: fn, line: i + 1, substr: m[1]})
		}
	}
	return wants
}

// TestCheckerFixtures runs each checker over its fixture package and matches
// the findings (after //rkvet:ignore suppression) against the planted
// expectations, both ways: every finding must be expected, every expectation
// must fire. A fixture with zero findings fails, which is the unit-level
// proof that rkvet exits nonzero on each checker's fixture.
func TestCheckerFixtures(t *testing.T) {
	for _, tc := range fixtureCases {
		t.Run(tc.checker.Name(), func(t *testing.T) {
			dir := filepath.Join("testdata", "src", tc.checker.Name())
			p, err := LoadPackageDir(dir, tc.importPath)
			if err != nil {
				t.Fatalf("loading fixture: %v", err)
			}
			findings := Run(p.Mod, []Checker{tc.checker})
			if len(findings) == 0 {
				t.Fatalf("fixture produced no findings; the checker cannot fire")
			}
			wants := parseWants(t, p.Filenames)
			for _, f := range findings {
				matched := false
				for _, w := range wants {
					if !w.matched && w.file == f.Pos.Filename && w.line == f.Pos.Line && strings.Contains(f.Message, w.substr) {
						w.matched = true
						matched = true
						break
					}
				}
				if !matched {
					t.Errorf("unexpected finding: %s", f)
				}
			}
			for _, w := range wants {
				if !w.matched {
					t.Errorf("%s:%d: expected a finding containing %q, got none", w.file, w.line, w.substr)
				}
			}
		})
	}
}

// TestFixturesQuietForOtherCheckers pins down checker independence: a
// fixture built to trip one checker must not trip the others, or the
// per-checker want matching above silently conflates suites.
func TestFixturesQuietForOtherCheckers(t *testing.T) {
	for _, tc := range fixtureCases {
		t.Run(tc.checker.Name(), func(t *testing.T) {
			dir := filepath.Join("testdata", "src", tc.checker.Name())
			p, err := LoadPackageDir(dir, tc.importPath)
			if err != nil {
				t.Fatalf("loading fixture: %v", err)
			}
			var others []Checker
			for _, c := range AllCheckers() {
				if c.Name() != tc.checker.Name() {
					others = append(others, c)
				}
			}
			for _, f := range Run(p.Mod, others) {
				t.Errorf("cross-checker finding in %s fixture: %s", tc.checker.Name(), f)
			}
		})
	}
}

// loadModule type-checks this repository's module once, for every test
// that reads it.
var loadModule = sync.OnceValues(func() (*Module, error) {
	return Load(filepath.Join("..", ".."))
})

// TestModuleClean is the dogfood gate: the full suite over the real module
// must report nothing — every true finding is fixed, every intentional
// exception carries a reasoned //rkvet:ignore. This is the test-shaped twin
// of `make lint`.
func TestModuleClean(t *testing.T) {
	mod, err := loadModule()
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	if len(mod.Pkgs) < 10 {
		t.Fatalf("loaded only %d packages; module discovery is broken", len(mod.Pkgs))
	}
	for _, f := range Run(mod, AllCheckers()) {
		t.Errorf("%s", f)
	}
}

// TestSuppressionScope verifies a suppression is line-scoped: the marker
// covers its own line and the next, nothing else.
func TestSuppressionScope(t *testing.T) {
	p, err := LoadPackageDir(filepath.Join("testdata", "src", "floateq"), "fixture/floateq")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	raw := FloatEq{}.Check(p)
	filtered := Run(p.Mod, []Checker{FloatEq{}})
	if len(raw) != len(filtered)+1 {
		t.Fatalf("suppression dropped %d finding(s), want exactly 1 (raw %d, filtered %d)",
			len(raw)-len(filtered), len(raw), len(filtered))
	}
}

// TestCheckerNames pins the registry: the suite is exactly the ten checkers
// the Makefile, CI, and docs promise — six syntactic, four interprocedural.
func TestCheckerNames(t *testing.T) {
	got := strings.Join(CheckerNames(), ",")
	want := "maporder,poolpair,floateq,dropperr,lockcheck,obsreg,ctxflow,atomicfield,gocapture,hotalloc"
	if got != want {
		t.Fatalf("CheckerNames() = %s, want %s", got, want)
	}
	var fast, deep []string
	for _, c := range SyntacticCheckers() {
		fast = append(fast, c.Name())
	}
	for _, c := range DeepCheckers() {
		deep = append(deep, c.Name())
	}
	if got := strings.Join(fast, ","); got != "maporder,poolpair,floateq,dropperr,lockcheck,obsreg" {
		t.Fatalf("SyntacticCheckers() = %s", got)
	}
	if got := strings.Join(deep, ","); got != "ctxflow,atomicfield,gocapture,hotalloc" {
		t.Fatalf("DeepCheckers() = %s", got)
	}
}

// TestParseIgnoreList pins the suppression grammar edge cases: multi-checker
// lists, unknown names degrading to reason text (suppress-all), the bare
// marker, and whitespace handling.
func TestParseIgnoreList(t *testing.T) {
	cases := []struct {
		name string
		text string // text after the "rkvet:ignore" marker
		want []string
	}{
		{"single checker", " ctxflow deadline is composed by wiring", []string{"ctxflow"}},
		{"multi-checker list", " ctxflow,atomicfield shared quiescent phase", []string{"ctxflow", "atomicfield"}},
		{"full list no reason", " maporder,poolpair,floateq", []string{"maporder", "poolpair", "floateq"}},
		{"unknown name is reason text", " legacy cleanup pending", []string{""}},
		{"unknown mixed with known keeps the known", " ctxflow,notachecker reason", []string{"ctxflow"}},
		{"bare ignore", "", []string{""}},
		{"bare ignore with spaces", "   ", []string{""}},
		{"reason starting with number", " 3 retries happen upstream", []string{""}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := parseIgnoreList(tc.text)
			if strings.Join(got, "|") != strings.Join(tc.want, "|") {
				t.Fatalf("parseIgnoreList(%q) = %v, want %v", tc.text, got, tc.want)
			}
		})
	}
}

// TestSuppressionPlacement verifies both sanctioned marker placements — a
// trailing comment on the finding's own line and a standalone comment on the
// line above — suppress, and that a marker two lines above does not.
func TestSuppressionPlacement(t *testing.T) {
	dir := t.TempDir()
	src := `package fix

func cmpSameLine(a, b float64) bool {
	return a == b //rkvet:ignore floateq fixture: same-line marker
}

func cmpLineAbove(a, b float64) bool {
	//rkvet:ignore floateq fixture: line-above marker
	return a == b
}

func cmpTooFar(a, b float64) bool {
	//rkvet:ignore floateq fixture: marker is two lines up, out of scope

	return a == b
}
`
	if err := os.WriteFile(filepath.Join(dir, "fix.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	p, err := LoadPackageDir(dir, "fixture/suppressionplacement")
	if err != nil {
		t.Fatalf("loading synthetic fixture: %v", err)
	}
	findings := Run(p.Mod, []Checker{FloatEq{}})
	if len(findings) != 1 {
		t.Fatalf("got %d findings, want exactly 1 (only cmpTooFar's marker is out of scope): %v", len(findings), findings)
	}
	if got := findings[0].Pos.Line; got != 15 {
		t.Errorf("surviving finding on line %d, want 15 (the == two lines below its marker)", got)
	}
}

// TestIgnoreScopedToNamedChecker verifies a marker naming one checker does
// not suppress another checker's finding on the same line.
func TestIgnoreScopedToNamedChecker(t *testing.T) {
	dir := t.TempDir()
	src := `package fix

func cmp(a, b float64) bool {
	return a == b //rkvet:ignore dropperr wrong checker named, floateq must still fire
}
`
	if err := os.WriteFile(filepath.Join(dir, "fix.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	p, err := LoadPackageDir(dir, "fixture/ignorescope")
	if err != nil {
		t.Fatalf("loading synthetic fixture: %v", err)
	}
	if findings := Run(p.Mod, []Checker{FloatEq{}}); len(findings) != 1 {
		t.Fatalf("got %d findings, want 1: a dropperr-scoped marker must not silence floateq", len(findings))
	}
}

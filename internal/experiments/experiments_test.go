package experiments

import (
	"strconv"
	"strings"
	"testing"
)

// quickEnv is shared across tests to amortize model training.
var quickEnv = NewEnv(Config{Quick: true, Instances: 8, Seed: 7})

func parsePct(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	if err != nil {
		t.Fatalf("bad percentage %q: %v", s, err)
	}
	return v
}

func parseF(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("bad float %q: %v", s, err)
	}
	return v
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"T3", "T4", "F1", "IDS",
		"F3a", "F3b", "F3c", "F3d", "F3e", "F3f", "F3g", "F3h", "F3i", "F3j",
		"F3k", "F3l", "F3m", "F3n", "F3o", "F3p", "S74", "S75",
		"F4a", "F4b", "F4c", "F4d", "F4e", "F4f", "F4g", "F4h",
		"AB-SRK-ORDER", "AB-BITSET", "AB-OSRK-WEIGHTS", "AB-SSRK-POTENTIAL", "AB-WINDOW-POLICY",
	}
	have := map[string]bool{}
	for _, id := range IDs() {
		have[id] = true
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("experiment %s not registered", id)
		}
	}
	if _, err := Run(quickEnv, "NOPE"); err == nil {
		t.Error("unknown experiment id accepted")
	}
}

func TestTableRender(t *testing.T) {
	tab := &Table{
		ID: "X", Title: "demo",
		Header: []string{"a", "b"},
		Rows:   [][]string{{"1", "22"}},
		Notes:  []string{"n"},
	}
	out := tab.Render()
	for _, want := range []string{"X", "demo", "a", "22", "note: n"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Render missing %q:\n%s", want, out)
		}
	}
}

// TestCaseStudyShape checks the Fig.1 invariants: CCE and Xreason conformant
// (0 violations), CCE no larger than Xreason, CCE faster than Xreason.
func TestCaseStudyShape(t *testing.T) {
	tab, err := Run(quickEnv, "F1")
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string][]string{}
	for _, r := range tab.Rows {
		rows[r[0]] = r
	}
	if rows["Xreason"][3] != "0" || rows["CCE"][3] != "0" {
		t.Fatalf("formal methods must have 0 violations: %v", tab.Rows)
	}
	cceSize := parseF(t, rows["CCE"][2])
	xrSize := parseF(t, rows["Xreason"][2])
	if cceSize > xrSize {
		t.Errorf("CCE key (%v) larger than Xreason (%v)", cceSize, xrSize)
	}
	if parseF(t, rows["CCE"][4]) > parseF(t, rows["Xreason"][4]) {
		t.Errorf("CCE slower than Xreason: %v vs %v", rows["CCE"][4], rows["Xreason"][4])
	}
}

// TestConformityShape checks Fig. 3a's headline: CCE is 100% conformant on
// every dataset.
func TestConformityShape(t *testing.T) {
	tab, err := Run(quickEnv, "F3a")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tab.Rows {
		if r[0] != "CCE" {
			continue
		}
		for i, cell := range r[1:] {
			if v := parsePct(t, cell); v < 100 {
				t.Errorf("CCE conformity %v%% on %s", v, tab.Header[i+1])
			}
		}
	}
}

// TestRecallSuccinctnessShape checks Fig. 3c/3d: CCE's recall beats Xreason's
// and its keys are smaller.
func TestRecallSuccinctnessShape(t *testing.T) {
	rec, err := Run(quickEnv, "F3c")
	if err != nil {
		t.Fatal(err)
	}
	suc, err := Run(quickEnv, "F3d")
	if err != nil {
		t.Fatal(err)
	}
	for col := 1; col < len(rec.Header); col++ {
		if parsePct(t, rec.Rows[0][col]) < parsePct(t, rec.Rows[1][col]) {
			t.Errorf("%s: CCE recall %s below Xreason %s", rec.Header[col], rec.Rows[0][col], rec.Rows[1][col])
		}
		if parseF(t, suc.Rows[0][col]) > parseF(t, suc.Rows[1][col]) {
			t.Errorf("%s: CCE keys %s larger than Xreason %s", suc.Header[col], suc.Rows[0][col], suc.Rows[1][col])
		}
	}
}

// TestAlphaTradeoffShape checks Fig. 3f: succinctness is non-increasing in
// decreasing α.
func TestAlphaTradeoffShape(t *testing.T) {
	tab, err := Run(quickEnv, "F3f")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tab.Rows {
		prev := -1.0
		for _, cell := range r[1:] {
			if cell == "-" {
				continue
			}
			v := parseF(t, cell)
			if prev >= 0 && v > prev+1e-9 {
				t.Errorf("%s: succinctness increased as α decreased: %v", r[0], r)
			}
			prev = v
		}
	}
}

// TestEMShape checks Fig. 3n + S75: CCE conformity 100% and CCE much faster
// than CERTA.
func TestEMShape(t *testing.T) {
	conf, err := Run(quickEnv, "F3n")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range conf.Rows {
		if r[0] == "CCE" {
			for _, cell := range r[1:] {
				if parsePct(t, cell) < 100 {
					t.Errorf("CCE EM conformity %s", cell)
				}
			}
		}
	}
	eff, err := Run(quickEnv, "S75")
	if err != nil {
		t.Fatal(err)
	}
	var cceMS, certaMS float64
	for _, r := range eff.Rows {
		switch r[0] {
		case "CCE":
			cceMS = parseF(t, r[1])
		case "CERTA":
			certaMS = parseF(t, r[1])
		}
	}
	if cceMS*10 > certaMS {
		t.Errorf("CCE (%vms) not ≫ faster than CERTA (%vms)", cceMS, certaMS)
	}
}

// TestDriftShape checks Fig. 3l: the noise stream's final succinctness
// exceeds the base stream's.
func TestDriftShape(t *testing.T) {
	tab, err := Run(quickEnv, "F3l")
	if err != nil {
		t.Fatal(err)
	}
	base := parseF(t, tab.Rows[0][len(tab.Rows[0])-1])
	noise := parseF(t, tab.Rows[1][len(tab.Rows[1])-1])
	if noise <= base {
		t.Errorf("noise succinctness %v not above base %v", noise, base)
	}
}

// TestWindowPolicyShape: each key is judged against the window it was
// resolved under, so last-wins and union-key are always conformant and only
// first-wins goes stale.
func TestWindowPolicyShape(t *testing.T) {
	tab, err := Run(quickEnv, "AB-WINDOW-POLICY")
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		if row[0] != "first-wins" && parsePct(t, row[1]) < 100 {
			t.Errorf("%s conformity %s, want 100%%", row[0], row[1])
		}
	}
}

// TestTable4Shape checks the efficiency ordering: CCE fastest, Xreason
// slowest.
func TestTable4Shape(t *testing.T) {
	tab, err := Run(quickEnv, "T4")
	if err != nil {
		t.Fatal(err)
	}
	times := map[string][]float64{}
	for _, r := range tab.Rows {
		for _, cell := range r[1:] {
			times[r[0]] = append(times[r[0]], parseF(t, cell))
		}
	}
	for ds := range tab.Header[1:] {
		cce := times["CCE"][ds]
		for _, m := range []string{"LIME", "SHAP", "Anchor", "Xreason"} {
			if cce > times[m][ds] {
				t.Errorf("%s: CCE (%.3fms) slower than %s (%.3fms)", tab.Header[ds+1], cce, m, times[m][ds])
			}
		}
		if times["Xreason"][ds] < times["CCE"][ds]*5 {
			t.Errorf("%s: Xreason (%.3fms) not ≫ slower than CCE (%.3fms)", tab.Header[ds+1], times["Xreason"][ds], times["CCE"][ds])
		}
	}
}

// TestRemainingExperimentsRun smoke-tests every other experiment end to end.
func TestRemainingExperimentsRun(t *testing.T) {
	covered := map[string]bool{
		"F1": true, "F3a": true, "F3c": true, "F3d": true, "F3f": true,
		"F3l": true, "F3n": true, "S75": true, "T4": true,
	}
	for _, id := range IDs() {
		if covered[id] {
			continue
		}
		id := id
		t.Run(id, func(t *testing.T) {
			tab, err := Run(quickEnv, id)
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			if len(tab.Rows) == 0 || len(tab.Header) == 0 {
				t.Fatalf("%s: empty table", id)
			}
			for _, r := range tab.Rows {
				if len(r) != len(tab.Header) {
					t.Fatalf("%s: ragged row %v vs header %v", id, r, tab.Header)
				}
			}
		})
	}
}

// Package experiments regenerates every table and figure of the paper's
// evaluation (§7 and Appendix B). Each experiment is a function from a shared
// environment to a Table; the registry maps experiment IDs (T3, T4, F3a…F3p,
// S74, S75, IDS, F4a…F4h, plus ablations) to these functions. The cmd/benchall
// binary and the root bench_test.go both drive this package.
package experiments

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Table is one regenerated paper artifact.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	// Notes records deviations or interpretation hints.
	Notes []string
}

// Render formats the table as aligned text.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len([]rune(h))
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len([]rune(c)) > widths[i] {
				widths[i] = len([]rune(c))
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			pad := 0
			if i < len(widths) {
				pad = widths[i] - len([]rune(c))
			}
			b.WriteString(c)
			b.WriteString(strings.Repeat(" ", pad+2))
		}
		b.WriteString("\n")
	}
	writeRow(t.Header)
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Config scales the harness.
type Config struct {
	// Quick shrinks datasets and sample sizes for fast runs (tests).
	Quick bool
	// Instances is the number of explained instances per dataset
	// (default 100 as in §7.1; quick default 12).
	Instances int
	// Seed drives all sampling in the harness.
	Seed int64
}

func (c Config) normalize() Config {
	if c.Instances <= 0 {
		if c.Quick {
			c.Instances = 12
		} else {
			c.Instances = 100
		}
	}
	if c.Seed == 0 {
		c.Seed = 20240701
	}
	return c
}

// Env caches the expensive artifacts (datasets, trained models, explanation
// runs) shared across experiments.
type Env struct {
	cfg Config

	mu       sync.Mutex
	pipes    map[string]*Pipeline
	emPipes  map[string]*EMPipeline
	dynCache map[string]*dynResult
}

// NewEnv builds an experiment environment.
func NewEnv(cfg Config) *Env {
	return &Env{
		cfg:     cfg.normalize(),
		pipes:   map[string]*Pipeline{},
		emPipes: map[string]*EMPipeline{},
	}
}

// ExperimentFunc regenerates one artifact.
type ExperimentFunc func(*Env) (*Table, error)

var registry = map[string]ExperimentFunc{}
var registryOrder []string

func register(id string, fn ExperimentFunc) {
	if _, dup := registry[id]; dup {
		panic("experiments: duplicate id " + id)
	}
	registry[id] = fn
	registryOrder = append(registryOrder, id)
}

// IDs lists the registered experiment IDs in registration order.
func IDs() []string { return append([]string(nil), registryOrder...) }

// Run executes one experiment by ID.
func Run(env *Env, id string) (*Table, error) {
	fn, ok := registry[id]
	if !ok {
		known := IDs()
		sort.Strings(known)
		return nil, fmt.Errorf("experiments: unknown id %q (known: %v)", id, known)
	}
	return fn(env)
}

// fmtMS renders a duration in milliseconds with sensible precision.
func fmtMS(ms float64) string {
	switch {
	case ms >= 100:
		return fmt.Sprintf("%.0f", ms)
	case ms >= 1:
		return fmt.Sprintf("%.1f", ms)
	case ms >= 0.01:
		return fmt.Sprintf("%.3f", ms)
	default: // a sub-microsecond solve must not print as 0.000
		return fmt.Sprintf("%.4f", ms)
	}
}

// fmtPct renders a ratio as a percentage.
func fmtPct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }

// fmtF renders a float compactly.
func fmtF(v float64) string { return fmt.Sprintf("%.2f", v) }

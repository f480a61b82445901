// Package obs is the repo's stdlib-only observability layer (DESIGN.md §10):
// a metrics registry with lock-free hot-path increments exposed in Prometheus
// text exposition format, lightweight span tracing with per-request trace IDs,
// and the log/slog JSON handler cceserver's records go through. It exists so
// the serving stack — solvers, CCE, persistence, cceserver — emits
// machine-readable numbers that later scaling work can be measured against,
// without adding a dependency (go.mod stays empty).
//
// Hot-path discipline: a Counter increment is one atomic add (< 20 ns,
// benchmarked in bench_test.go), a Histogram observation is a bounds search
// over a small fixed array plus three atomic operations, and every metric
// type is a no-op on its nil zero value — "disabled" instrumentation is a nil
// pointer, not a branch on shared state.
//
// Process-wide series register at package init into Default through
// package-level vars; a duplicate name panics immediately so a copy-pasted
// metric cannot silently split its traffic between two series, and rkvet's
// obsreg checker proves name uniqueness statically for the same reason.
// Series that count one object's events — each service.Server's requests,
// sheds, cache and jobs — register in that object's own Registry instead, and
// Handler serves Default and those registries as one exposition.
package obs

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"

	"github.com/xai-db/relativekeys/internal/sortedkeys"
)

// collector is one registered metric family: it renders its series (one or
// many, for vecs) in exposition order.
type collector interface {
	metricName() string
	metricHelp() string
	metricType() string
	expose(buf *bytes.Buffer)
}

// desc is the name/help pair shared by every metric family.
type desc struct {
	name string
	help string
}

func (d desc) metricName() string { return d.name }
func (d desc) metricHelp() string { return d.help }

// Registry holds metric families by name and renders them as Prometheus text
// exposition format. The registry lock is taken only at registration and
// scrape time — never on the increment path.
type Registry struct {
	mu      sync.RWMutex
	metrics map[string]collector // guarded by mu
}

// NewRegistry returns an empty registry. Most code uses the package-level
// Default registry via the top-level constructors.
func NewRegistry() *Registry {
	return &Registry{metrics: map[string]collector{}}
}

// Default is the process-wide registry the package-level constructors
// register into; every service.Server's /metrics serves it beside the
// server's own registry.
var Default = NewRegistry()

// opsWriteFailures counts the ops responses, Handler's scrapes and the trace
// handler's dumps, whose body write failed: the client went away mid-body,
// and the connection is unusable, so the handler has no one left to tell.
var opsWriteFailures = NewCounter("rk_ops_write_failures_total",
	"Ops responses (/metrics scrapes, /debug/traces dumps) whose body write failed.")

// register adds a family, panicking on an invalid or duplicate name: metric
// registration happens in package var blocks, so a duplicate is a programming
// error best caught the first time the process starts.
func (r *Registry) register(c collector) {
	name := c.metricName()
	if !validMetricName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.metrics[name]; dup {
		panic(fmt.Sprintf("obs: metric %q registered twice", name))
	}
	r.metrics[name] = c
}

// validMetricName enforces the Prometheus data-model name grammar
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func validMetricName(name string) bool {
	if name == "" {
		return false
	}
	for i, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// validLabelName enforces [a-zA-Z_][a-zA-Z0-9_]* (no colons in label names).
func validLabelName(name string) bool {
	return validMetricName(name) && !strings.ContainsRune(name, ':')
}

// WriteProm renders every registered family, sorted by name, in Prometheus
// text exposition format (version 0.0.4): # HELP and # TYPE comments followed
// by the family's series.
func (r *Registry) WriteProm(w io.Writer) error { return writeProm(w, []*Registry{r}) }

// Handler serves GET /metrics: every family of every given registry as one
// exposition, sorted by name across registries. Families are never merged or
// dropped, so a name registered in two of them appears twice; keeping names
// unique across the registries a process serves is the caller's contract.
func Handler(regs ...*Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet {
			http.Error(w, "GET only", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := writeProm(w, regs); err != nil {
			opsWriteFailures.Inc()
		}
	})
}

// writeProm renders the families of regs as one exposition, sorted by name
// (a stable sort, so equal names keep registry order). The whole scrape is
// assembled in memory first so a slow client never holds a registry lock.
func writeProm(w io.Writer, regs []*Registry) error {
	var fams []collector
	for _, r := range regs {
		r.mu.RLock()
		for _, name := range sortedkeys.Of(r.metrics) {
			fams = append(fams, r.metrics[name])
		}
		r.mu.RUnlock()
	}
	sort.SliceStable(fams, func(i, j int) bool { return fams[i].metricName() < fams[j].metricName() })
	var buf bytes.Buffer
	for _, c := range fams {
		fmt.Fprintf(&buf, "# HELP %s %s\n", c.metricName(), escapeHelp(c.metricHelp()))
		fmt.Fprintf(&buf, "# TYPE %s %s\n", c.metricName(), c.metricType())
		c.expose(&buf)
	}
	_, err := w.Write(buf.Bytes())
	return err
}

// escapeHelp escapes backslashes and newlines per the exposition format.
func escapeHelp(s string) string {
	var b bytes.Buffer
	for _, c := range s {
		switch c {
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(c)
		}
	}
	return b.String()
}

// escapeLabelValue additionally escapes double quotes (label values are
// quoted in the series line).
func escapeLabelValue(s string) string {
	var b bytes.Buffer
	for _, c := range s {
		switch c {
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		case '"':
			b.WriteString(`\"`)
		default:
			b.WriteRune(c)
		}
	}
	return b.String()
}

// labelPairs renders `name="value",…` (no braces) for a child's label values,
// in label-declaration order — deterministic because the order is the vec's,
// not a map's.
func labelPairs(names, values []string) string {
	var b bytes.Buffer
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(values[i]))
		b.WriteByte('"')
	}
	return b.String()
}

// seriesLine writes one `name{pairs} value` sample.
func seriesLine(buf *bytes.Buffer, name, pairs, value string) {
	buf.WriteString(name)
	if pairs != "" {
		buf.WriteByte('{')
		buf.WriteString(pairs)
		buf.WriteByte('}')
	}
	buf.WriteByte(' ')
	buf.WriteString(value)
	buf.WriteByte('\n')
}

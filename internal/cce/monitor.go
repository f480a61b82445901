package cce

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"sync"

	"github.com/xai-db/relativekeys/internal/core"
	"github.com/xai-db/relativekeys/internal/feature"
)

// DriftMonitor implements the §7.4 application: monitor the relative keys of
// a panel of target instances with OSRK while inference instances stream in.
// A dip in black-box model accuracy (noise, concept drift) manifests as an
// abnormal rise of the average monitored succinctness — without access to
// ground-truth labels or the model.
//
// DriftMonitor is safe for concurrent use: a serving stack typically feeds
// it from request handlers while a scraper polls AvgSuccinctness/History.
type DriftMonitor struct {
	schema  *feature.Schema
	alpha   float64
	panelSz int
	seed    int64

	mu       sync.RWMutex
	monitors []*core.OSRK // guarded by mu
	// history is the average-succinctness curve as change points, one per
	// arrival that enrolled a member or grew a key; the curve holds each
	// point's value until the next. History expands it.
	history  []changePoint // guarded by mu
	arrivals int           // guarded by mu
}

// changePoint records the panel after arrival at (0-based): members keys
// whose sizes sum to sum, an average of float64(sum)/float64(members).
type changePoint struct {
	at, members, sum int
}

// value is the panel's average succinctness at the point.
func (p changePoint) value() float64 { return float64(p.sum) / float64(p.members) }

// recordLocked notes the panel state after arrival at when it differs from
// the last change point. Callers hold d.mu.
func (d *DriftMonitor) recordLocked(at, members, sum int) {
	if n := len(d.history); n > 0 && d.history[n-1].members == members && d.history[n-1].sum == sum {
		return
	}
	d.history = append(d.history, changePoint{at: at, members: members, sum: sum})
}

// NewDriftMonitor monitors the keys of the first panelSize distinct-enough
// arrivals (the monitored panel) as the stream proceeds.
func NewDriftMonitor(schema *feature.Schema, alpha float64, panelSize int, seed int64) (*DriftMonitor, error) {
	if err := core.ValidateAlpha(alpha); err != nil {
		return nil, err
	}
	if panelSize <= 0 {
		return nil, fmt.Errorf("cce: panel size %d must be positive", panelSize)
	}
	return &DriftMonitor{schema: schema, alpha: alpha, panelSz: panelSize, seed: seed}, nil
}

// Observe feeds one arrival to every panel monitor (enrolling it as a new
// target first while the panel is filling).
func (d *DriftMonitor) Observe(li feature.Labeled) error {
	_, err := d.ObserveCtx(context.Background(), li) //rkvet:ignore ctxflow Observe is the sanctioned never-cancelled specialization; panel enrollment must not be torn by a deadline
	return err
}

// ObserveCtx is Observe under a deadline: each panel OSRK stops its grow loop
// when ctx expires, keeping its coherent candidate and catching up on later
// arrivals. The return counts the panel monitors that degraded this arrival.
//
// The arrival is validated before it can enroll a panel member, and every
// member validates it the same way, so an arrival updates all members or
// none. Once the panel is full the per-arrival path allocates nothing but the
// amortized change-point append when a key grows.
func (d *DriftMonitor) ObserveCtx(ctx context.Context, li feature.Labeled) (int, error) {
	if err := core.ValidateLabeled(d.schema, li); err != nil {
		return 0, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.monitors) < d.panelSz {
		m, err := core.NewOSRK(d.schema, li.X, li.Y, d.alpha, d.seed+int64(len(d.monitors)))
		if err != nil {
			return 0, err
		}
		d.monitors = append(d.monitors, m)
	}
	numDegraded := 0
	for _, m := range d.monitors {
		degraded, err := m.ObserveCtx(ctx, li)
		if err != nil {
			return numDegraded, err
		}
		if degraded {
			numDegraded++
		}
	}
	d.recordLocked(d.arrivals, len(d.monitors), keySum(d.monitors))
	d.arrivals++
	monitorObservations.Inc()
	if numDegraded > 0 {
		monitorDegraded.Add(int64(numDegraded))
	}
	return numDegraded, nil
}

// ObserveAll is ObserveRows over a slice of arrivals: every arrival is
// validated (core.ValidateLabeled) before any member sees one, and the error
// is the first invalid arrival's.
func (d *DriftMonitor) ObserveAll(items []feature.Labeled) error {
	rows := feature.NewRows(d.schema, len(items))
	for _, li := range items {
		if err := core.ValidateLabeled(d.schema, li); err != nil {
			return err
		}
		rows.Append(li)
	}
	return d.observeRows(rows)
}

// ObserveRows feeds a table of arrivals in order, leaving the monitor
// bit-identical to ObserveCtx called on each row under a context that never
// expires: the same keys, History, Arrivals, and every member's RNG
// position. The table is validated (feature.Rows.Validate) before any
// member sees a row, so a batch updates the panel whole or, on an error,
// not at all.
//
// It is the bulk path for rebuilding a panel from a stored stream (service
// recovery and snapshot install): each member runs over its arrivals in one
// plain loop (core.OSRK.Replay) that reads labels and key codes in place,
// re-validates nothing and reads no clock, so the osrk_observe stage
// histogram times live arrivals only, while rk_monitor_observations_total
// counts the batch. History gains a change point wherever a member enrolled
// or a key grew.
func (d *DriftMonitor) ObserveRows(rows *feature.Rows) error {
	if err := rows.Validate(d.schema); err != nil {
		return fmt.Errorf("cce: %w", err)
	}
	return d.observeRows(rows)
}

// observeRows is ObserveRows over a table already validated for the schema.
func (d *DriftMonitor) observeRows(rows *feature.Rows) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	// While the panel fills, every arrival enrolls one member, which then
	// watches the stream from its own arrival on: member first+i enrolls at
	// row i. NewOSRK clones its target, so one scratch row serves them all,
	// and refuses nothing a validated table holds.
	first := len(d.monitors)
	var enrolled []*core.OSRK
	var x feature.Instance
	for i := 0; i < rows.Len() && first+len(enrolled) < d.panelSz; i++ {
		x = rows.AppendInstance(x[:0], i)
		m, err := core.NewOSRK(d.schema, x, rows.Label(i), d.alpha, d.seed+int64(first+i))
		if err != nil {
			return err
		}
		enrolled = append(enrolled, m)
	}
	d.monitors = append(d.monitors, enrolled...)
	sum := keySum(d.monitors[:first])
	// grew holds, for every feature any member's key gained, the row that
	// added it.
	var grew []int
	for j, m := range d.monitors {
		grew = m.Replay(rows, max(j-first, 0), grew)
	}
	slices.Sort(grew)
	for i := 0; i < rows.Len(); i++ {
		for len(grew) > 0 && grew[0] == i {
			sum++
			grew = grew[1:]
		}
		// The same integers over the same members as ObserveCtx records
		// after a per-arrival update.
		d.recordLocked(d.arrivals+i, first+min(i+1, len(enrolled)), sum)
	}
	d.arrivals += rows.Len()
	monitorObservations.Add(int64(rows.Len()))
	return nil
}

// AvgSuccinctness returns the mean key size over the panel.
func (d *DriftMonitor) AvgSuccinctness() float64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.avgSuccinctnessLocked()
}

// avgSuccinctnessLocked is AvgSuccinctness for callers already holding d.mu.
func (d *DriftMonitor) avgSuccinctnessLocked() float64 {
	if len(d.monitors) == 0 {
		return 0
	}
	return float64(keySum(d.monitors)) / float64(len(d.monitors))
}

// keySum sums the key sizes of members; callers hold the monitor's lock.
func keySum(members []*core.OSRK) int {
	sum := 0
	for _, m := range members {
		sum += m.Succinctness()
	}
	return sum
}

// History returns the succinctness trajectory (one point per arrival),
// expanded from the change points.
func (d *DriftMonitor) History() []float64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]float64, d.arrivals)
	for k, p := range d.history {
		end := d.arrivals
		if k+1 < len(d.history) {
			end = d.history[k+1].at
		}
		for i := p.at; i < end; i++ {
			out[i] = p.value()
		}
	}
	return out
}

// Arrivals returns the number of observed instances.
func (d *DriftMonitor) Arrivals() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.arrivals
}

// CurveAt samples the history at the given fractions (e.g. 0.1, 0.2, … 1.0),
// producing the series of Fig. 3l.
func (d *DriftMonitor) CurveAt(fracs []float64) ([]float64, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if d.arrivals == 0 {
		return nil, fmt.Errorf("cce: no arrivals observed yet")
	}
	out := make([]float64, len(fracs))
	for i, f := range fracs {
		if f <= 0 || f > 1 {
			return nil, fmt.Errorf("cce: fraction %v outside (0,1]", f)
		}
		idx := int(f*float64(d.arrivals)) - 1
		if idx < 0 {
			idx = 0
		}
		// The last change point at or before arrival idx.
		k := sort.Search(len(d.history), func(k int) bool { return d.history[k].at > idx }) - 1
		out[i] = d.history[k].value()
	}
	return out, nil
}

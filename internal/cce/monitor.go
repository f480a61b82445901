package cce

import (
	"context"
	"fmt"
	"slices"
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
	history  []float64    // guarded by mu; average succinctness after each arrival
	arrivals int          // guarded by mu
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
// amortized history append.
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
	d.arrivals++
	d.history = append(d.history, d.avgSuccinctnessLocked())
	monitorObservations.Inc()
	if numDegraded > 0 {
		monitorDegraded.Add(int64(numDegraded))
	}
	return numDegraded, nil
}

// ObserveAll feeds a batch of arrivals in order, leaving the monitor
// bit-identical to ObserveCtx called on each under a context that never
// expires: the same keys, History, Arrivals, and every member's RNG position.
// Every arrival is validated before any member sees one, so a batch updates
// the panel whole or, on an error, not at all.
//
// It is the bulk path for rebuilding a panel from a stored stream (service
// recovery and snapshot install): each member runs over its arrivals in one
// plain loop (core.OSRK.Replay) that re-validates nothing and reads no clock,
// so the osrk_observe stage histogram times live arrivals only, while
// rk_monitor_observations_total counts the batch. History is rebuilt from the
// points at which each member's key grew.
func (d *DriftMonitor) ObserveAll(items []feature.Labeled) error {
	for _, li := range items {
		if err := core.ValidateLabeled(d.schema, li); err != nil {
			return err
		}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	// While the panel fills, every arrival enrolls one member, which then
	// watches the stream from its own arrival on: member first+i enrolls at
	// items[i]. NewOSRK can refuse only what was validated above.
	first := len(d.monitors)
	var enrolled []*core.OSRK
	for i := 0; i < len(items) && first+len(enrolled) < d.panelSz; i++ {
		m, err := core.NewOSRK(d.schema, items[i].X, items[i].Y, d.alpha, d.seed+int64(first+i))
		if err != nil {
			return err
		}
		enrolled = append(enrolled, m)
	}
	d.monitors = append(d.monitors, enrolled...)
	sum := 0
	for _, m := range d.monitors[:first] {
		sum += m.Succinctness()
	}
	// grew holds, for every feature any member's key gained, the index of
	// the arrival that added it.
	var grew []int
	for j, m := range d.monitors {
		from := max(j-first, 0)
		at := len(grew)
		grew = m.Replay(items[from:], grew)
		for k := at; k < len(grew); k++ {
			grew[k] += from
		}
	}
	slices.Sort(grew)
	d.history = slices.Grow(d.history, len(items))
	for i := range items {
		for len(grew) > 0 && grew[0] == i {
			sum++
			grew = grew[1:]
		}
		// The same integer sum over the same members as
		// avgSuccinctnessLocked after a per-arrival update.
		members := first + min(i+1, len(enrolled))
		d.history = append(d.history, float64(sum)/float64(members))
	}
	d.arrivals += len(items)
	monitorObservations.Add(int64(len(items)))
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
	sum := 0
	for _, m := range d.monitors {
		sum += m.Succinctness()
	}
	return float64(sum) / float64(len(d.monitors))
}

// History returns the succinctness trajectory (one point per arrival).
func (d *DriftMonitor) History() []float64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return append([]float64(nil), d.history...)
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
	if len(d.history) == 0 {
		return nil, fmt.Errorf("cce: no arrivals observed yet")
	}
	out := make([]float64, len(fracs))
	for i, f := range fracs {
		if f <= 0 || f > 1 {
			return nil, fmt.Errorf("cce: fraction %v outside (0,1]", f)
		}
		idx := int(f*float64(len(d.history))) - 1
		if idx < 0 {
			idx = 0
		}
		out[i] = d.history[idx]
	}
	return out, nil
}

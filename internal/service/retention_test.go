package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"github.com/xai-db/relativekeys/internal/feature"
	"github.com/xai-db/relativekeys/internal/persist"
)

func retentionServer(t *testing.T, panel, retain int) (*Server, *Client) {
	t.Helper()
	schema := feature.MustSchema([]feature.Attribute{
		{Name: "Income", Values: []string{"1-2K", "3-4K", "5-6K"}},
		{Name: "Credit", Values: []string{"poor", "good"}},
		{Name: "Area", Values: []string{"Urban", "Rural"}},
	}, []string{"Denied", "Approved"})
	srv, err := NewServer(Config{Schema: schema, Alpha: 1.0, PanelSize: panel, Retain: retain})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, NewClient(ts.URL)
}

func TestRetentionBoundsContext(t *testing.T) {
	srv, client := retentionServer(t, 0, 5)
	rows := []struct{ income, credit, area, pred string }{
		{"1-2K", "poor", "Urban", "Denied"},
		{"3-4K", "poor", "Urban", "Denied"},
		{"5-6K", "poor", "Urban", "Approved"},
		{"3-4K", "good", "Rural", "Approved"},
		{"1-2K", "good", "Urban", "Denied"},
		{"5-6K", "good", "Rural", "Approved"},
		{"3-4K", "poor", "Rural", "Denied"},
		{"5-6K", "poor", "Rural", "Approved"},
	}
	for i, r := range rows {
		if err := client.Observe(map[string]string{
			"Income": r.income, "Credit": r.credit, "Area": r.area,
		}, r.pred); err != nil {
			t.Fatal(err)
		}
		want := i + 1
		if want > 5 {
			want = 5
		}
		if got := srv.ctx.Len(); got != want {
			t.Fatalf("after %d observes: context %d, want %d", i+1, got, want)
		}
	}
	// The physical index must not outgrow the retention bound: each observe
	// past the bound retires the oldest row before it takes a slot.
	if got := srv.ctx.Context().NumSlots(); got > 5 {
		t.Fatalf("NumSlots = %d, want ≤ retain (slots must recycle)", got)
	}
	stats, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.ContextSize != 5 || stats.Retention != 5 {
		t.Fatalf("stats = %+v", stats)
	}
	// Explaining still works against the bounded context.
	if _, err := client.Explain(map[string]string{
		"Income": "5-6K", "Credit": "poor", "Area": "Rural",
	}, "Approved", 0); err != nil {
		t.Fatal(err)
	}
	// Retention evicts oldest-first: the first three observed rows are gone,
	// so the live rows are exactly rows[3:], oldest first.
	items := srv.ctx.Items()
	if len(items) != 5 {
		t.Fatalf("Items = %d, want 5", len(items))
	}
	for i, r := range rows[3:] {
		want, err := srv.decode(map[string]string{"Income": r.income, "Credit": r.credit, "Area": r.area}, r.pred)
		if err != nil {
			t.Fatal(err)
		}
		if !items[i].X.Equal(want.X) || items[i].Y != want.Y {
			t.Fatalf("Items[%d] = %v, want rows[%d] %v", i, items[i], i+3, want)
		}
	}
	if _, err := NewServer(Config{Schema: srv.schema, Alpha: 1.0, Retain: -1}); err == nil {
		t.Fatal("negative retention accepted")
	}
}

func TestRetentionWarm(t *testing.T) {
	srv, _ := retentionServer(t, 0, 3)
	items := []feature.Labeled{
		{X: feature.Instance{0, 0, 0}, Y: 0},
		{X: feature.Instance{1, 1, 1}, Y: 1},
		{X: feature.Instance{2, 0, 1}, Y: 1},
		{X: feature.Instance{0, 1, 0}, Y: 0},
	}
	n, err := srv.Warm(items)
	if err != nil || n != 4 {
		t.Fatalf("Warm = %d, %v", n, err)
	}
	if srv.ctx.Len() != 3 {
		t.Fatalf("context %d after warm, want 3", srv.ctx.Len())
	}
}

// failingMonitor rejects every observation after the first `allow`.
type failingMonitor struct {
	allow    int
	arrivals int
}

func (m *failingMonitor) ObserveCtx(context.Context, feature.Labeled) (int, error) {
	if m.arrivals >= m.allow {
		return 0, errors.New("monitor: induced failure")
	}
	m.arrivals++
	return 0, nil
}
func (m *failingMonitor) AvgSuccinctness() float64 { return 0 }
func (m *failingMonitor) Arrivals() int            { return m.arrivals }

// TestObserveAtomicRollback: when the drift monitor rejects an instance the
// context must be left as it was, so the state the client sees is as if the
// request never happened — a retry cannot duplicate the row.
func TestObserveAtomicRollback(t *testing.T) {
	srv, client := retentionServer(t, 0, 0)
	srv.monitor = &failingMonitor{allow: 2}

	row := map[string]string{"Income": "3-4K", "Credit": "poor", "Area": "Urban"}
	for i := 0; i < 2; i++ {
		if err := client.Observe(row, "Denied"); err != nil {
			t.Fatal(err)
		}
	}
	if srv.ctx.Len() != 2 {
		t.Fatalf("context %d before failure, want 2", srv.ctx.Len())
	}
	// Monitor now fails: the observe must 500 AND leave the context as-is.
	err := client.Observe(row, "Denied")
	if err == nil {
		t.Fatal("failing monitor not surfaced")
	}
	if !strings.Contains(err.Error(), "500") {
		t.Fatalf("want 500 error, got %v", err)
	}
	if srv.ctx.Len() != 2 {
		t.Fatalf("context %d after failed observe, want 2 (rollback)", srv.ctx.Len())
	}
	// A later successful path (monitor swapped out) takes the next slot: the
	// refused observe never held one.
	srv.monitor = nil
	if err := client.Observe(row, "Denied"); err != nil {
		t.Fatal(err)
	}
	if srv.ctx.Len() != 3 || srv.ctx.Context().NumSlots() != 3 {
		t.Fatalf("context Len=%d NumSlots=%d after retry, want 3/3", srv.ctx.Len(), srv.ctx.Context().NumSlots())
	}
}

// failingSink is a WAL sink that accepts its first allow writes and fails
// every later one. The server calls it under its state lock.
type failingSink struct{ allow int }

func (f *failingSink) Write(p []byte) (int, error) {
	if f.allow == 0 {
		return 0, errors.New("sink: induced write failure")
	}
	f.allow--
	return len(p), nil
}
func (f *failingSink) Sync() error { return nil }

// TestRefusedObserveKeepsCachedExplain: an observe the drift monitor refuses,
// or whose WAL append fails, never reaches the context, so the context
// version stays put and a cached explain keeps answering hit with the same
// body. Adding the row and then rolling it back moved the version twice and
// turned the next explain into a miss.
func TestRefusedObserveKeepsCachedExplain(t *testing.T) {
	schema := robustSchema(t)
	rows := randomRows(41, 8, schema)
	for _, tc := range []struct {
		name   string
		cfg    Config
		status int
	}{
		{"monitor", Config{Monitor: &failingMonitor{allow: len(rows)}}, http.StatusInternalServerError},
		{"wal", Config{WAL: persist.NewWAL(&failingSink{allow: len(rows)})}, http.StatusServiceUnavailable},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Schema, cfg.Alpha = schema, 1.0
			srv, err := NewServer(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(srv.Handler())
			t.Cleanup(ts.Close)
			if _, err := srv.Warm(rows); err != nil {
				t.Fatal(err)
			}
			q := rows[0]
			req := ExplainRequest{Values: valuesOf(schema, q.X), Prediction: schema.Labels[q.Y]}
			if _, _, src := explainRaw(t, ts.URL, req); src != "miss" {
				t.Fatalf("first explain %q, want miss", src)
			}
			code, cached, src := explainRaw(t, ts.URL, req)
			if code != http.StatusOK || src != "hit" {
				t.Fatalf("second explain %d %q, want 200 hit", code, src)
			}
			version, size := srv.ctx.Version(), srv.ctx.Len()

			resp := postJSON(t, ts.URL+"/observe", ObserveRequest{Values: valuesOf(schema, rows[1].X), Prediction: schema.Labels[rows[1].Y]})
			resp.Body.Close() //rkvet:ignore dropperr test teardown
			if resp.StatusCode != tc.status {
				t.Fatalf("refused observe answered %d, want %d", resp.StatusCode, tc.status)
			}
			code, body, src := explainRaw(t, ts.URL, req)
			if code != http.StatusOK || src != "hit" || !bytes.Equal(body, cached) {
				t.Fatalf("explain after a refused observe: %d %q, want 200 hit with the cached body", code, src)
			}
			if srv.ctx.Version() != version || srv.ctx.Len() != size {
				t.Fatalf("refused observe moved the context: version %d→%d, size %d→%d", version, srv.ctx.Version(), size, srv.ctx.Len())
			}
			if m, w := srv.metrics.rollbackMonitor.Value(), srv.metrics.rollbackWAL.Value(); m+w != 1 {
				t.Fatalf("refusal counters monitor=%d wal=%d, want one refusal", m, w)
			}
		})
	}
}

// TestServiceConcurrentHeavy hammers /observe, /explain and /stats in
// parallel — including a retention-bounded server whose observes remove rows
// — and is intended to run under -race: it proves the in-place context
// mutation keeps readers and writers serialized by the server lock.
func TestServiceConcurrentHeavy(t *testing.T) {
	for _, retain := range []int{0, 8} {
		t.Run(fmt.Sprintf("retain=%d", retain), func(t *testing.T) {
			_, client := retentionServer(t, 3, retain)
			// Seed so explains have a context.
			seed := []struct{ income, credit, area, pred string }{
				{"3-4K", "poor", "Urban", "Denied"},
				{"5-6K", "good", "Rural", "Approved"},
				{"1-2K", "poor", "Urban", "Denied"},
				{"5-6K", "poor", "Urban", "Approved"},
			}
			for _, r := range seed {
				if err := client.Observe(map[string]string{
					"Income": r.income, "Credit": r.credit, "Area": r.area,
				}, r.pred); err != nil {
					t.Fatal(err)
				}
			}
			var wg sync.WaitGroup
			errs := make(chan error, 96)
			for i := 0; i < 32; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					switch i % 3 {
					case 0:
						errs <- client.Observe(map[string]string{
							"Income": "3-4K", "Credit": "good", "Area": "Rural",
						}, "Approved")
					case 1:
						_, err := client.Explain(map[string]string{
							"Income": "3-4K", "Credit": "poor", "Area": "Urban",
						}, "Denied", 0)
						errs <- err
					default:
						_, err := client.Stats()
						errs <- err
					}
				}(i)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				if err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

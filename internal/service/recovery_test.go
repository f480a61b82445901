package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"github.com/xai-db/relativekeys/internal/cce"
	"github.com/xai-db/relativekeys/internal/core"
	"github.com/xai-db/relativekeys/internal/faultinject"
	"github.com/xai-db/relativekeys/internal/feature"
	"github.com/xai-db/relativekeys/internal/obs"
	"github.com/xai-db/relativekeys/internal/persist"
)

func randomRows(seed int64, n int, s *feature.Schema) []feature.Labeled {
	rng := rand.New(rand.NewSource(seed))
	rows := make([]feature.Labeled, n)
	for i := range rows {
		x := make(feature.Instance, s.NumFeatures())
		for a := range x {
			x[a] = feature.Value(rng.Intn(len(s.Attrs[a].Values)))
		}
		rows[i] = feature.Labeled{X: x, Y: feature.Label(rng.Intn(len(s.Labels)))}
	}
	return rows
}

// assertSameKeys checks that two contexts explain a probe set byte-
// identically: same keys, same no-key verdicts.
func assertSameKeys(t *testing.T, got, want *core.Context, probes []feature.Labeled, alpha float64) {
	t.Helper()
	for i, p := range probes {
		kGot, errGot := core.SRK(got, p.X, p.Y, alpha)
		kWant, errWant := core.SRK(want, p.X, p.Y, alpha)
		if (errGot == nil) != (errWant == nil) {
			t.Fatalf("probe %d: recovered err=%v, reference err=%v", i, errGot, errWant)
		}
		if !kGot.Equal(kWant) {
			t.Fatalf("probe %d: recovered key %v, reference %v", i, kGot, kWant)
		}
	}
}

// The acceptance test for crash safety: a WAL torn mid-record by an injected
// kill -9 recovers every acknowledged observation — the torn row was 503'd
// and rolled back, so the recovered context explains byte-identically to a
// reference built from exactly the acknowledged rows.
func TestCrashRecoveryTornWAL(t *testing.T) {
	schema := robustSchema(t)
	dir := t.TempDir()
	walPath := filepath.Join(dir, walFileName)
	f, err := os.OpenFile(walPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// The cut lands mid-record a few observations in; everything after fails.
	torn := faultinject.NewTornWriter(f, 300)
	srvA, err := NewServer(Config{
		Schema:        schema,
		Alpha:         1.0,
		StateDir:      dir,
		WAL:           persist.NewWAL(torn),
		SnapshotEvery: 1 << 30, // WAL-only: no snapshot before the crash
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srvA.Handler())
	rows := randomRows(11, 12, schema)
	var acked []feature.Labeled
	sawReject := false
	for _, li := range rows {
		resp := postJSON(t, ts.URL+"/observe", ObserveRequest{
			Values:     valuesOf(schema, li.X),
			Prediction: schema.Labels[li.Y],
		})
		resp.Body.Close()
		switch resp.StatusCode {
		case 200:
			acked = append(acked, li)
		case 503:
			sawReject = true
		default:
			t.Fatalf("observe answered %d", resp.StatusCode)
		}
	}
	ts.Close()
	if len(acked) == 0 || !sawReject {
		t.Fatalf("cut did not split the stream: %d acked, reject=%v", len(acked), sawReject)
	}
	if srvA.ctx.Len() != len(acked) {
		t.Fatalf("pre-crash context %d rows, %d acked", srvA.ctx.Len(), len(acked))
	}
	// kill -9: the server is abandoned without Close; only the torn file
	// remains.
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	srvB, err := NewServer(Config{Schema: schema, Alpha: 1.0, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer srvB.Close() //rkvet:ignore dropperr test cleanup
	if srvB.ctx.Len() != len(acked) {
		t.Fatalf("recovered %d rows, want the %d acked", srvB.ctx.Len(), len(acked))
	}
	if srvB.Seq() != uint64(len(acked)) {
		t.Fatalf("recovered seq %d, want %d", srvB.Seq(), len(acked))
	}
	ref, err := New(schema, 1.0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Warm(acked); err != nil {
		t.Fatal(err)
	}
	assertSameKeys(t, srvB.ctx.Context(), ref.ctx.Context(), randomRows(12, 40, schema), 1.0)
}

// Snapshot + WAL replay compose: recovery re-admits the snapshot rows in
// arrival order, replays only records past the watermark, and retention
// keeps evicting oldest-first afterwards exactly as an uncrashed server
// would.
func TestRecoverySnapshotPlusWALWithRetention(t *testing.T) {
	schema := robustSchema(t)
	dir := t.TempDir()
	cfg := Config{Schema: schema, Alpha: 1.0, Retain: 6, StateDir: dir, SnapshotEvery: 4}
	srvA, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rows := randomRows(21, 10, schema)
	if _, err := srvA.Warm(rows); err != nil {
		t.Fatal(err)
	}
	// kill -9: no Close. Snapshots happened at seq 4 and 8; the WAL holds
	// everything.
	srvB, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srvB.Close() //rkvet:ignore dropperr test cleanup
	if srvB.Seq() != 10 || srvB.ctx.Len() != 6 {
		t.Fatalf("recovered seq=%d len=%d, want 10/6", srvB.Seq(), srvB.ctx.Len())
	}
	ref, err := NewServer(Config{Schema: schema, Alpha: 1.0, Retain: 6})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Warm(rows); err != nil {
		t.Fatal(err)
	}
	assertSameKeys(t, srvB.ctx.Context(), ref.ctx.Context(), randomRows(22, 40, schema), 1.0)
	// Retention stays arrival-ordered post-recovery: further observations
	// evict the same rows on both servers.
	more := randomRows(23, 4, schema)
	if _, err := srvB.Warm(more); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Warm(more); err != nil {
		t.Fatal(err)
	}
	assertSameKeys(t, srvB.ctx.Context(), ref.ctx.Context(), randomRows(24, 40, schema), 1.0)
}

// A damaged snapshot must refuse to start, not silently serve a wrong
// context.
func TestRecoveryRefusesCorruptSnapshot(t *testing.T) {
	schema := robustSchema(t)
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, snapshotFileName), []byte(`{"version":2,"seq":`), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := NewServer(Config{Schema: schema, Alpha: 1.0, StateDir: dir})
	if !errors.Is(err, persist.ErrCorruptSnapshot) {
		t.Fatalf("corrupt snapshot accepted: %v", err)
	}
}

// A state directory written before snapshot v3 boots in place: the v2
// snapshot recovers its rows and watermark, and the next save rewrites it
// as v3, which the following boot reads back to the same state.
func TestRecoveryUpgradesV2Snapshot(t *testing.T) {
	v2, err := os.ReadFile(filepath.Join("..", "persist", "testdata", "golden", "context.snap"))
	if err != nil {
		t.Fatal(err)
	}
	schema := feature.MustSchema([]feature.Attribute{
		{Name: "A", Values: []string{"a0", "a1", "a2"}},
		{Name: "B", Values: []string{"b0", "b1"}},
	}, []string{"neg", "pos"})
	golden := []feature.Labeled{
		{X: feature.Instance{0, 1}, Y: 1},
		{X: feature.Instance{2, 0}, Y: 0},
	}
	dir := t.TempDir()
	snapPath := filepath.Join(dir, snapshotFileName)
	if err := os.WriteFile(snapPath, v2, 0o644); err != nil {
		t.Fatal(err)
	}
	assertRecovered := func(t *testing.T, srv *Server) {
		t.Helper()
		if srv.Seq() != 17 {
			t.Fatalf("recovered seq %d, want the golden's 17", srv.Seq())
		}
		items := srv.ctx.Items()
		if len(items) != len(golden) {
			t.Fatalf("recovered %d rows, want %d", len(items), len(golden))
		}
		for i, li := range items {
			if li.Y != golden[i].Y || !li.X.Equal(golden[i].X) {
				t.Fatalf("recovered row %d = %v, want %v", i, li, golden[i])
			}
		}
	}

	srvA, err := NewServer(Config{Schema: schema, Alpha: 1.0, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	assertRecovered(t, srvA)
	ref, err := New(schema, 1.0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Warm(golden); err != nil {
		t.Fatal(err)
	}
	assertSameKeys(t, srvA.ctx.Context(), ref.ctx.Context(), randomRows(51, 20, schema), 1.0)
	if err := srvA.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(b, []byte("RKSN")) {
		t.Fatalf("snapshot after Close starts %q, want the v3 magic RKSN", b[:min(len(b), 8)])
	}

	srvB, err := NewServer(Config{Schema: schema, Alpha: 1.0, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	assertRecovered(t, srvB)
	if err := srvB.Close(); err != nil {
		t.Fatal(err)
	}
}

// Close snapshots the final state, so a clean shutdown recovers even with
// the WAL deleted out from under it.
func TestCloseSnapshotsFinalState(t *testing.T) {
	schema := robustSchema(t)
	dir := t.TempDir()
	srvA, err := NewServer(Config{Schema: schema, Alpha: 1.0, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	rows := randomRows(31, 7, schema)
	if _, err := srvA.Warm(rows); err != nil {
		t.Fatal(err)
	}
	if err := srvA.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, walFileName)); err != nil {
		t.Fatal(err)
	}
	srvB, err := NewServer(Config{Schema: schema, Alpha: 1.0, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer srvB.Close() //rkvet:ignore dropperr test cleanup
	if srvB.ctx.Len() != 7 || srvB.Seq() != 7 {
		t.Fatalf("clean-shutdown recovery: len=%d seq=%d, want 7/7", srvB.ctx.Len(), srvB.Seq())
	}
}

// processSeries reads the process-global series (obs.Default) as /metrics
// renders them.
func processSeries(t *testing.T) map[string]float64 {
	t.Helper()
	ts := httptest.NewServer(obs.Handler(obs.Default))
	defer ts.Close()
	return scrape(t, ts.URL)
}

// TestRecoveryRebuildsMonitor: boot recovery (snapshot plus WAL tail, with
// and without retention) and a follower's snapshot install rebuild the drift
// panel exactly as a monitor fed the same rows one at a time, and do it on
// the bulk path: the replayed rows count in rk_monitor_observations_total
// while the osrk_observe stage histogram, which times live arrivals, does
// not move.
func TestRecoveryRebuildsMonitor(t *testing.T) {
	schema := robustSchema(t)
	const (
		panel = 4
		n     = 300
		every = 64 // the last snapshot is at seq 256; the WAL holds 257..300
	)
	rows := randomRows(41, n, schema)
	const observations = "rk_monitor_observations_total"
	const osrkTimed = `rk_solver_stage_seconds_count{stage="osrk_observe"}`

	// checkMonitor compares srv's /stats panel fields with a monitor fed
	// want one row at a time, and the process series moved by load with
	// the rows load replayed.
	checkMonitor := func(t *testing.T, srv *Server, want []feature.Labeled, before, after map[string]float64, replayed int) {
		t.Helper()
		ref, err := cce.NewDriftMonitor(schema, 1.0, panel, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, li := range want {
			if err := ref.Observe(li); err != nil {
				t.Fatal(err)
			}
		}
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		st, err := NewClient(ts.URL).Stats()
		if err != nil {
			t.Fatal(err)
		}
		if st.MonitorArrivals != ref.Arrivals() || math.Float64bits(st.AvgSuccinctness) != math.Float64bits(ref.AvgSuccinctness()) {
			t.Fatalf("/stats monitor_arrivals %d, monitor_avg_succinctness %v; a per-row monitor reads %d, %v",
				st.MonitorArrivals, st.AvgSuccinctness, ref.Arrivals(), ref.AvgSuccinctness())
		}
		if got := after[observations] - before[observations]; got != float64(replayed) {
			t.Fatalf("%s rose by %v, want the %d rows replayed", observations, got, replayed)
		}
		if _, ok := after[osrkTimed]; !ok {
			t.Fatalf("/metrics has no %s series", osrkTimed)
		}
		if got := after[osrkTimed] - before[osrkTimed]; got != 0 {
			t.Fatalf("%s moved by %v during the replay; it times live arrivals only", osrkTimed, got)
		}
	}

	for _, retain := range []int{0, 50} {
		t.Run(fmt.Sprintf("retain=%d", retain), func(t *testing.T) {
			cfg := Config{Schema: schema, Alpha: 1.0, PanelSize: panel, Retain: retain, StateDir: t.TempDir(), SnapshotEvery: every}
			srvA, err := NewServer(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := srvA.Warm(rows); err != nil {
				t.Fatal(err)
			}
			// kill -9: no Close. The snapshot at seq 256 holds the rows
			// retention kept then; the WAL tail follows it.
			replayed := rows
			if retain > 0 {
				replayed = rows[256-retain:]
			}
			before := processSeries(t)
			srvB, err := NewServer(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer srvB.Close() //rkvet:ignore dropperr test cleanup
			after := processSeries(t)
			if srvB.Seq() != n {
				t.Fatalf("recovered seq %d, want %d", srvB.Seq(), n)
			}
			checkMonitor(t, srvB, replayed, before, after, len(replayed))
		})
	}

	t.Run("follower-install", func(t *testing.T) {
		srv, err := NewServer(Config{Schema: schema, Alpha: 1.0, PanelSize: panel, Follower: true, StateDir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close() //rkvet:ignore dropperr test cleanup
		ctx := context.Background()
		// Two streamed rows half-fill the panel before the install.
		for i, li := range rows[:2] {
			if err := srv.ApplyReplicated(ctx, uint64(i+1), li); err != nil {
				t.Fatal(err)
			}
		}
		before := processSeries(t)
		if err := srv.InstallSnapshot(ctx, schema, tableOf(schema, rows), n); err != nil {
			t.Fatal(err)
		}
		after := processSeries(t)
		checkMonitor(t, srv, append(append([]feature.Labeled{}, rows[:2]...), rows...), before, after, n)
	})
}

// valuesOf renders an instance back to the wire format.
func valuesOf(s *feature.Schema, x feature.Instance) map[string]string {
	m := make(map[string]string, len(s.Attrs))
	for a, attr := range s.Attrs {
		m[attr.Name] = attr.Values[x[a]]
	}
	return m
}

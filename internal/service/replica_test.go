package service

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/xai-db/relativekeys/internal/feature"
)

// pint64 renders an optional response field for failure messages.
func pint64(p *int64) any {
	if p == nil {
		return "<nil>"
	}
	return *p
}

func newFollowerServer(t *testing.T, dir string) *Server {
	t.Helper()
	srv, err := NewServer(Config{Schema: robustSchema(t), Alpha: 1.0, Follower: true, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

func TestFollowerRefusesObserveAndWarm(t *testing.T) {
	srv := newFollowerServer(t, "")
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	resp := postJSON(t, ts.URL+"/observe", ObserveRequest{
		Values:     valuesOf(srv.schema, robustSeed()[0].X),
		Prediction: "Denied",
	})
	resp.Body.Close() //rkvet:ignore dropperr test response close
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("/observe on a follower: %d, want 403", resp.StatusCode)
	}
	if _, err := srv.Warm(robustSeed()); err == nil {
		t.Fatal("Warm on a follower succeeded; replicas must only apply replicated rows")
	}
}

// enterWriter closes entered on its first Write, so a test can act while a
// writer is known to be blocked inside it.
type enterWriter struct {
	w       io.Writer
	once    sync.Once
	entered chan struct{}
}

func (e *enterWriter) Write(p []byte) (int, error) {
	e.once.Do(func() { close(e.entered) })
	return e.w.Write(p)
}

// A follower that stops reading /snapshot must not stall the observe path:
// the primary encodes and writes the stream after releasing its state lock.
func TestReplicaSnapshotStreamDoesNotBlockObserve(t *testing.T) {
	schema := robustSchema(t)
	srv, err := NewServer(Config{Schema: schema, Alpha: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := srv.Close(); err != nil {
			t.Error(err)
		}
	})
	if _, err := srv.Warm(robustSeed()); err != nil {
		t.Fatal(err)
	}
	pr, pw := io.Pipe()
	stalled := &enterWriter{w: pw, entered: make(chan struct{})}
	streamed := make(chan error, 1)
	go func() { streamed <- srv.WriteSnapshotTo(stalled) }()
	<-stalled.entered

	warmed := make(chan error, 1)
	go func() {
		_, err := srv.Warm(robustSeed()[:1])
		warmed <- err
	}()
	var warmErr error
	blocked := false
	select {
	case warmErr = <-warmed:
	case <-time.After(2 * time.Second):
		blocked = true
	}
	// The follower goes away; both goroutines finish either way.
	pr.CloseWithError(errors.New("follower gone"))
	if err := <-streamed; err == nil {
		t.Error("snapshot stream to a closed follower reported success")
	}
	if blocked {
		<-warmed
		t.Fatal("a 1-row observe waited over 2s behind a snapshot stream nobody reads")
	}
	if warmErr != nil {
		t.Fatal(warmErr)
	}
}

func TestApplyReplicatedOrdering(t *testing.T) {
	srv := newFollowerServer(t, "")
	seed := robustSeed()
	ctx := context.Background()

	if err := srv.ApplyReplicated(ctx, 1, seed[0]); err != nil {
		t.Fatal(err)
	}
	// A duplicate (reconnect overlap) is skipped without error or state change.
	if err := srv.ApplyReplicated(ctx, 1, seed[1]); err != nil {
		t.Fatalf("duplicate seq: %v, want silent skip", err)
	}
	if srv.ContextSize() != 1 || srv.Seq() != 1 {
		t.Fatalf("after dup: size=%d seq=%d, want 1/1", srv.ContextSize(), srv.Seq())
	}
	// A gap must be refused: applying it would silently lose records.
	if err := srv.ApplyReplicated(ctx, 3, seed[2]); !errors.Is(err, ErrReplicaGap) {
		t.Fatalf("gap seq: %v, want ErrReplicaGap", err)
	}
	if err := srv.ApplyReplicated(ctx, 2, seed[1]); err != nil {
		t.Fatal(err)
	}
	if srv.ContextSize() != 2 || srv.Seq() != 2 {
		t.Fatalf("size=%d seq=%d, want 2/2", srv.ContextSize(), srv.Seq())
	}
	// A primary refuses the replication entry points outright.
	prim, err := NewServer(Config{Schema: robustSchema(t), Alpha: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if err := prim.ApplyReplicated(ctx, 1, seed[0]); err == nil {
		t.Fatal("ApplyReplicated on a primary succeeded")
	}
}

func TestFollowerStalenessContract(t *testing.T) {
	srv := newFollowerServer(t, "")
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	ctx := context.Background()
	seed := robustSeed()

	// The primary advertises watermark 6 before any record arrives: the
	// follower is provably behind, so it was never synced (staleness -1).
	// Unbounded requests still answer; bounded requests shed.
	srv.ReplicaHeartbeat(6)
	for i, li := range seed[:3] {
		if err := srv.ApplyReplicated(ctx, uint64(i+1), li); err != nil {
			t.Fatal(err)
		}
	}
	row := map[string]string{"Income": "5-6K", "Credit": "good", "Area": "Rural"}

	resp := postJSON(t, ts.URL+"/explain", ExplainRequest{Values: row, Prediction: "Approved"})
	var er ExplainResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close() //rkvet:ignore dropperr test response close
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("unbounded explain: %d, want 200", resp.StatusCode)
	}
	if er.ReplicaSeq == nil || *er.ReplicaSeq != 3 {
		t.Fatalf("replica_seq = %v, want 3", er.ReplicaSeq)
	}
	if er.StalenessMS == nil || *er.StalenessMS != -1 {
		t.Fatalf("staleness_ms = %v, want -1 (never synced)", pint64(er.StalenessMS))
	}

	resp = postJSON(t, ts.URL+"/explain", ExplainRequest{Values: row, Prediction: "Approved", MaxStalenessMS: 60_000})
	resp.Body.Close() //rkvet:ignore dropperr test response close
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("bounded explain before sync: %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("stale shed carries no Retry-After")
	}

	// Catching up to the advertised watermark proves freshness; the bound
	// passes and the response carries the contract fields and headers.
	for i, li := range seed[3:] {
		if err := srv.ApplyReplicated(ctx, uint64(i+4), li); err != nil {
			t.Fatal(err)
		}
	}
	resp = postJSON(t, ts.URL+"/explain", ExplainRequest{Values: row, Prediction: "Approved", MaxStalenessMS: 60_000})
	er = ExplainResponse{}
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close() //rkvet:ignore dropperr test response close
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("bounded explain after sync: %d, want 200", resp.StatusCode)
	}
	if er.StalenessMS == nil || *er.StalenessMS < 0 || *er.StalenessMS > 60_000 {
		t.Fatalf("staleness_ms = %v, want within the requested bound", pint64(er.StalenessMS))
	}
	if resp.Header.Get("X-RK-Replica-Seq") != "6" {
		t.Fatalf("X-RK-Replica-Seq = %q, want 6", resp.Header.Get("X-RK-Replica-Seq"))
	}

	// A bound the follower cannot meet sheds: a heartbeat far ahead of the
	// applied watermark keeps the staleness clock running.
	srv.ReplicaHeartbeat(100)
	time.Sleep(15 * time.Millisecond)
	resp = postJSON(t, ts.URL+"/explain", ExplainRequest{Values: row, Prediction: "Approved", MaxStalenessMS: 1})
	body := make([]byte, 256)
	n, _ := resp.Body.Read(body) //rkvet:ignore dropperr best-effort body read for the assertion message
	resp.Body.Close()            //rkvet:ignore dropperr test response close
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("explain beyond bound: %d (%s), want 503", resp.StatusCode, strings.TrimSpace(string(body[:n])))
	}
}

func TestPrimaryExplainCarriesNoReplicaFields(t *testing.T) {
	srv, err := NewServer(Config{Schema: robustSchema(t), Alpha: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Warm(robustSeed()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	row := map[string]string{"Income": "5-6K", "Credit": "good", "Area": "Rural"}
	// A primary is never stale: any bound is trivially met.
	resp := postJSON(t, ts.URL+"/explain", ExplainRequest{Values: row, Prediction: "Approved", MaxStalenessMS: 1})
	var er ExplainResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close() //rkvet:ignore dropperr test response close
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("primary bounded explain: %d, want 200", resp.StatusCode)
	}
	if er.ReplicaSeq != nil || er.StalenessMS != nil {
		t.Fatalf("primary response carries replica fields: seq=%v staleness=%v", er.ReplicaSeq, er.StalenessMS)
	}
}

func TestInstallSnapshotSwapsAtomically(t *testing.T) {
	dir := t.TempDir()
	srv := newFollowerServer(t, dir)
	ctx := context.Background()
	seed := robustSeed()
	for i, li := range seed[:3] {
		if err := srv.ApplyReplicated(ctx, uint64(i+1), li); err != nil {
			t.Fatal(err)
		}
	}
	// Install replaces everything: rows, watermark, and the durable snapshot.
	if err := srv.InstallSnapshot(ctx, robustSchema(t), seed, 42); err != nil {
		t.Fatal(err)
	}
	if srv.ContextSize() != len(seed) || srv.Seq() != 42 {
		t.Fatalf("after install: size=%d seq=%d, want %d/42", srv.ContextSize(), srv.Seq(), len(seed))
	}
	if _, err := os.Stat(filepath.Join(dir, snapshotFileName)); err != nil {
		t.Fatalf("install did not persist the watermark snapshot: %v", err)
	}
	// A follower crash now resumes from the installed watermark.
	srv2 := newFollowerServer(t, dir)
	if srv2.ContextSize() != len(seed) || srv2.Seq() != 42 {
		t.Fatalf("restart after install: size=%d seq=%d, want %d/42", srv2.ContextSize(), srv2.Seq(), len(seed))
	}
	// A snapshot under a different schema must be refused with the state
	// untouched: silently mixing arities would corrupt every later key.
	bad := feature.MustSchema([]feature.Attribute{
		{Name: "Income", Values: []string{"1-2K", "3-4K", "5-6K"}},
		{Name: "Credit", Values: []string{"poor", "good"}},
	}, []string{"Denied", "Approved"})
	if err := srv.InstallSnapshot(ctx, bad, nil, 50); err == nil {
		t.Fatal("InstallSnapshot accepted a mismatched schema")
	}
	if srv.ContextSize() != len(seed) || srv.Seq() != 42 {
		t.Fatalf("failed install mutated state: size=%d seq=%d, want %d/42", srv.ContextSize(), srv.Seq(), len(seed))
	}
}

// TestInstallSnapshotInvalidatesExplainCache pins the cache-version contract
// across snapshot catch-up: InstallSnapshot swaps in a fresh context whose
// Version() restarts at zero, so without a monotonic base on the Server a
// cached pre-snapshot entry would collide with a post-snapshot key carrying
// the same version number and be served for different context content.
func TestInstallSnapshotInvalidatesExplainCache(t *testing.T) {
	srv := newFollowerServer(t, "") // cache is on by default
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	ctx := context.Background()
	seed := robustSeed()

	// Three applied rows put the context at version 3; the explain below is
	// cached under that version.
	for i, li := range seed[:3] {
		if err := srv.ApplyReplicated(ctx, uint64(i+1), li); err != nil {
			t.Fatal(err)
		}
	}
	row := map[string]string{"Income": "5-6K", "Credit": "good", "Area": "Rural"}
	resp := postJSON(t, ts.URL+"/explain", ExplainRequest{Values: row, Prediction: "Approved"})
	resp.Body.Close() //rkvet:ignore dropperr test response close
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pre-install explain: %d, want 200", resp.StatusCode)
	}

	// Install a snapshot of three DIFFERENT rows: the fresh context's version
	// is again 3, the exact collision the version base must prevent.
	if err := srv.InstallSnapshot(ctx, robustSchema(t), seed[3:], 42); err != nil {
		t.Fatal(err)
	}

	resp = postJSON(t, ts.URL+"/explain", ExplainRequest{Values: row, Prediction: "Approved"})
	var cached ExplainResponse
	if err := json.NewDecoder(resp.Body).Decode(&cached); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close() //rkvet:ignore dropperr test response close
	if src := resp.Header.Get("X-RK-Cache"); src == "hit" {
		t.Fatal("post-install explain served a pre-snapshot cache entry")
	}
	// The served answer must equal a cache-bypassed solve against the
	// installed rows in every explanation field.
	resp = postJSON(t, ts.URL+"/explain", ExplainRequest{Values: row, Prediction: "Approved", NoCache: true})
	var fresh ExplainResponse
	if err := json.NewDecoder(resp.Body).Decode(&fresh); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close() //rkvet:ignore dropperr test response close
	if cached.Rule != fresh.Rule || cached.Precision != fresh.Precision ||
		cached.Coverage != fresh.Coverage || cached.Context != fresh.Context { //rkvet:ignore floateq byte-identical responses share exact float values
		t.Fatalf("post-install cached response diverges from bypass: %+v vs %+v", cached, fresh)
	}
}

func TestWALCompaction(t *testing.T) {
	dir := t.TempDir()
	schema := robustSchema(t)
	srv, err := NewServer(Config{
		Schema: schema, Alpha: 1.0, StateDir: dir,
		SnapshotEvery: 4, CompactWAL: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	rows := randomRows(7, 10, schema)
	if _, err := srv.Warm(rows); err != nil {
		t.Fatal(err)
	}
	// 10 observations with a snapshot (and truncate) every 4: the base must
	// have advanced to the last snapshot's watermark.
	if base := srv.WALBase(); base != 8 {
		t.Fatalf("wal base = %d, want 8 (last compaction point)", base)
	}
	st, err := os.Stat(filepath.Join(dir, walFileName))
	if err != nil {
		t.Fatal(err)
	}
	// Only records 9 and 10 remain in the log.
	if st.Size() <= 0 {
		t.Fatal("log empty: records past the snapshot must remain")
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	// Recovery across compaction: snapshot + remaining tail reproduce all 10.
	srv2, err := NewServer(Config{
		Schema: schema, Alpha: 1.0, StateDir: dir,
		SnapshotEvery: 4, CompactWAL: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close() //rkvet:ignore dropperr test cleanup
	if srv2.ContextSize() != 10 || srv2.Seq() != 10 {
		t.Fatalf("recovered size=%d seq=%d, want 10/10", srv2.ContextSize(), srv2.Seq())
	}
	if base := srv2.WALBase(); base < 8 {
		t.Fatalf("recovered wal base = %d, want ≥ 8 (compaction must survive restart)", base)
	}
}

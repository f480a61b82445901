package replica

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"github.com/xai-db/relativekeys/internal/e2e"
	"github.com/xai-db/relativekeys/internal/obs"
	"github.com/xai-db/relativekeys/internal/persist"
)

// readStreamLine reads one newline-framed line from a replication stream.
func readStreamLine(t *testing.T, br *bufio.Reader) []byte {
	t.Helper()
	line, err := br.ReadBytes('\n')
	if err != nil {
		t.Fatalf("stream read: %v", err)
	}
	return line
}

// isHeartbeat decodes a stream line as the heartbeat envelope.
func isHeartbeat(t *testing.T, line []byte) (heartbeat, bool) {
	t.Helper()
	var hb heartbeat
	if err := json.Unmarshal(line, &hb); err != nil {
		t.Fatalf("stream line is not JSON: %v (%q)", err, line)
	}
	return hb, hb.HB
}

func TestHubStreamsHistoryThenLive(t *testing.T) {
	p := newTestPrimary(t, t.TempDir(), primaryOpts{snapshotEvery: 100})
	rows := testRows(3, 8, p.schema)
	p.warm(rows[:5])

	req, err := http.NewRequest(http.MethodGet, p.URL()+"/replicate?from=0", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close() //rkvet:ignore dropperr test response close
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/replicate: %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	epoch := resp.Header.Get(EpochHeader)
	if epoch == "" {
		t.Fatal("stream carries no epoch header")
	}

	br := bufio.NewReader(resp.Body)
	// Handshake heartbeat first: epoch + current watermark, before any record.
	hb, ok := isHeartbeat(t, readStreamLine(t, br))
	if !ok {
		t.Fatal("stream did not open with a heartbeat")
	}
	if hb.Epoch != epoch || hb.Seq != 5 {
		t.Fatalf("handshake = %+v, want epoch %s seq 5", hb, epoch)
	}
	// Then history: seqs 1..5 in order, CRC-valid, byte-compatible with the
	// on-disk framing.
	for want := uint64(1); want <= 5; want++ {
		line := readStreamLine(t, br)
		seq, li, derr := persist.DecodeWALRecord(line)
		if derr != nil {
			t.Fatalf("history record %d: %v", want, derr)
		}
		if seq != want {
			t.Fatalf("history seq = %d, want %d", seq, want)
		}
		if li.Y != rows[want-1].Y {
			t.Fatalf("history record %d label = %d, want %d", want, li.Y, rows[want-1].Y)
		}
	}
	// Live: new observations arrive on the open stream.
	p.warm(rows[5:])
	deadline := time.Now().Add(5 * time.Second)
	for want := uint64(6); want <= 8; {
		if time.Now().After(deadline) {
			t.Fatal("live records never arrived")
		}
		line := readStreamLine(t, br)
		if _, isHB := isHeartbeat(t, line); isHB {
			continue
		}
		seq, _, derr := persist.DecodeWALRecord(line)
		if derr != nil {
			t.Fatal(derr)
		}
		if seq != want {
			t.Fatalf("live seq = %d, want %d", seq, want)
		}
		want++
	}
}

func TestHubResumesFromCursor(t *testing.T) {
	p := newTestPrimary(t, t.TempDir(), primaryOpts{snapshotEvery: 100})
	p.warm(testRows(4, 6, p.schema))

	resp, err := http.Get(p.URL() + "/replicate?from=4")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close() //rkvet:ignore dropperr test response close
	br := bufio.NewReader(resp.Body)
	if _, ok := isHeartbeat(t, readStreamLine(t, br)); !ok {
		t.Fatal("no handshake heartbeat")
	}
	for _, want := range []uint64{5, 6} {
		seq, _, derr := persist.DecodeWALRecord(readStreamLine(t, br))
		if derr != nil {
			t.Fatal(derr)
		}
		if seq != want {
			t.Fatalf("resumed seq = %d, want %d", seq, want)
		}
	}
}

// recoveryCounters reads the WAL recovery counters from the process-wide
// exposition.
func recoveryCounters(t *testing.T) (records, torn float64) {
	t.Helper()
	var buf bytes.Buffer
	if err := obs.Default.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	records, ok1 := e2e.SeriesValue(buf.String(), "rk_wal_replay_records_total")
	torn, ok2 := e2e.SeriesValue(buf.String(), "rk_wal_replay_torn_total")
	if !ok1 || !ok2 {
		t.Fatal("WAL recovery counters missing from the exposition")
	}
	return records, torn
}

// TestHubHistoryIsNotRecovery: streaming history to a follower reads the
// primary's log but recovers nothing, so the recovery counters stay put.
func TestHubHistoryIsNotRecovery(t *testing.T) {
	p := newTestPrimary(t, t.TempDir(), primaryOpts{snapshotEvery: 100})
	rows := testRows(3, 6, p.schema)
	p.warm(rows[:5])
	records, torn := recoveryCounters(t)

	resp, err := http.Get(p.URL() + "/replicate?from=0")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close() //rkvet:ignore dropperr test response close
	br := bufio.NewReader(resp.Body)
	if _, ok := isHeartbeat(t, readStreamLine(t, br)); !ok {
		t.Fatal("no handshake heartbeat")
	}
	// History then one live record: the live loop starts only after the
	// history scan has returned, so its counters (if any) are in by then.
	p.warm(rows[5:])
	for want := uint64(1); want <= 6; {
		line := readStreamLine(t, br)
		if _, isHB := isHeartbeat(t, line); isHB {
			continue
		}
		seq, _, derr := persist.DecodeWALRecord(line)
		if derr != nil {
			t.Fatal(derr)
		}
		if seq != want {
			t.Fatalf("stream seq = %d, want %d", seq, want)
		}
		want++
	}
	if r, tt := recoveryCounters(t); r != records || tt != torn {
		t.Fatalf("history stream moved rk_wal_replay_records_total by %v and rk_wal_replay_torn_total by %v", r-records, tt-torn)
	}
}

func TestHubFencesStaleEpoch(t *testing.T) {
	p := newTestPrimary(t, t.TempDir(), primaryOpts{snapshotEvery: 100})
	resp, err := http.Get(p.URL() + "/replicate?from=0&epoch=e999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close() //rkvet:ignore dropperr test response close
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("stale epoch: %d, want 409", resp.StatusCode)
	}
}

func TestHubGoneBelowCompactionBase(t *testing.T) {
	p := newTestPrimary(t, t.TempDir(), primaryOpts{snapshotEvery: 4, compactWAL: true})
	p.warm(testRows(5, 10, p.schema))
	if base := p.srv.WALBase(); base == 0 {
		t.Fatal("compaction never advanced the wal base")
	}
	// A follower whose watermark predates the compacted base cannot resume.
	resp, err := http.Get(p.URL() + "/replicate?from=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close() //rkvet:ignore dropperr test response close
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("pre-base cursor: %d, want 410", resp.StatusCode)
	}
}

func TestHubSnapshotEndpoint(t *testing.T) {
	p := newTestPrimary(t, t.TempDir(), primaryOpts{snapshotEvery: 100})
	rows := testRows(6, 7, p.schema)
	p.warm(rows)

	resp, err := http.Get(p.URL() + "/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close() //rkvet:ignore dropperr test response close
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/snapshot: %d, want 200", resp.StatusCode)
	}
	if resp.Header.Get(SeqHeader) != "7" {
		t.Fatalf("%s = %q, want 7", SeqHeader, resp.Header.Get(SeqHeader))
	}
	if resp.Header.Get(EpochHeader) == "" {
		t.Fatal("snapshot carries no epoch")
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Fatalf("/snapshot Content-Type = %q, want application/octet-stream", ct)
	}
	schema, items, seq, err := persist.DecodeSnapshot(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 7 || len(items) != 7 {
		t.Fatalf("snapshot seq=%d rows=%d, want 7/7", seq, len(items))
	}
	if schema.NumFeatures() != p.schema.NumFeatures() {
		t.Fatalf("snapshot schema arity %d, want %d", schema.NumFeatures(), p.schema.NumFeatures())
	}
}

func TestHubDropsSlowFollower(t *testing.T) {
	var seq uint64
	hub := NewHub(HubConfig{
		Epoch:          "e1",
		Seq:            func() uint64 { return seq },
		Base:           func() uint64 { return 0 },
		FollowerBuffer: 2,
	})
	_, ch, cancel := hub.subscribe()
	defer cancel()
	rows := testRows(7, 4, testSchema(t))
	// A subscriber that never drains overflows after the buffer fills; the
	// hub must cut it loose rather than block the observe path.
	for i, li := range rows {
		seq = uint64(i + 1)
		hub.Publish(seq, li)
	}
	if n := hub.Subscribers(); n != 0 {
		t.Fatalf("slow follower still subscribed (%d)", n)
	}
	// The channel was closed after the buffered records.
	drained := 0
	for range ch {
		drained++
	}
	if drained != 2 {
		t.Fatalf("drained %d buffered records, want 2", drained)
	}
}

func TestHubRejectsNonGet(t *testing.T) {
	p := newTestPrimary(t, t.TempDir(), primaryOpts{snapshotEvery: 100})
	for _, path := range []string{"/replicate", "/snapshot"} {
		resp, err := http.Post(p.URL()+path, "application/json", strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close() //rkvet:ignore dropperr test response close
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("POST %s: %d, want 405", path, resp.StatusCode)
		}
	}
}

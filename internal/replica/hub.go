package replica

import (
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"time"

	"github.com/xai-db/relativekeys/internal/feature"
	"github.com/xai-db/relativekeys/internal/obs"
	"github.com/xai-db/relativekeys/internal/persist"
)

// HubConfig wires a Hub to its primary server without importing service: the
// closures read the server's replication surface (cmd/cceserver binds them).
type HubConfig struct {
	Epoch string // this primary life's identity, minted by NextEpoch

	Seq  func() uint64 // durable observation watermark
	Base func() uint64 // highest seq NOT in the log (compaction); 0 = complete log

	// OpenWAL opens the on-disk observation log for history streaming; nil
	// or a nil reader means no log (live records only).
	OpenWAL func() (io.ReadCloser, error)

	// WriteSnapshot streams the current rows + watermark in the snapshot
	// encoding — the /snapshot catch-up payload.
	WriteSnapshot func(w io.Writer) error

	HeartbeatEvery time.Duration // stream heartbeat cadence; 0 = 1s
	FollowerBuffer int           // per-subscriber line buffer; 0 = 256; overflow drops the subscriber
	Logger         *slog.Logger  // nil = silent
}

// pub is one published record: the seq lets subscribers dedupe the overlap
// between history replay and the live feed.
type pub struct {
	seq  uint64
	line []byte
}

// Hub fans the primary's durable observation stream out to followers. The
// primary calls Publish under its state lock after each WAL append; slow
// followers are dropped (their channel closed) rather than allowed to apply
// backpressure to the observe path — a dropped follower reconnects from its
// watermark and loses nothing.
type Hub struct {
	cfg HubConfig

	mu   sync.Mutex
	subs map[int]chan pub // guarded by mu
	next int              // guarded by mu; subscriber id counter
}

// NewHub builds a hub; see HubConfig for the wiring contract.
func NewHub(cfg HubConfig) *Hub {
	if cfg.HeartbeatEvery <= 0 {
		cfg.HeartbeatEvery = time.Second
	}
	if cfg.FollowerBuffer <= 0 {
		cfg.FollowerBuffer = 256
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(obs.DiscardHandler)
	}
	return &Hub{cfg: cfg, subs: make(map[int]chan pub)}
}

// Publish ships one durable observation to every connected follower. It never
// blocks: a subscriber whose buffer is full is disconnected on the spot.
// Called under the primary's state lock, so encoding stays out of any fast
// path other than observe itself (one marshal per observation).
func (h *Hub) Publish(seq uint64, li feature.Labeled) {
	line, err := persist.EncodeWALRecord(seq, li)
	if err != nil {
		h.cfg.Logger.Warn("replication publish encode failed", "seq", seq, "err", err)
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	for id, ch := range h.subs {
		select {
		case ch <- pub{seq: seq, line: line}:
		default:
			// The follower is slower than the observe rate and its buffer is
			// gone; cut it loose. It reconnects from its applied watermark.
			close(ch)
			delete(h.subs, id)
			replFollowerDrops.Inc()
			h.cfg.Logger.Warn("follower dropped: replication buffer overflow", "subscriber", id)
		}
	}
}

// subscribe registers a live-feed channel; the returned cancel is idempotent
// against the overflow drop in Publish (both paths delete under mu).
func (h *Hub) subscribe() (int, chan pub, func()) {
	h.mu.Lock()
	defer h.mu.Unlock()
	id := h.next
	h.next++
	ch := make(chan pub, h.cfg.FollowerBuffer)
	h.subs[id] = ch
	return id, ch, func() {
		h.mu.Lock()
		defer h.mu.Unlock()
		if _, ok := h.subs[id]; ok {
			delete(h.subs, id)
			close(ch)
		}
	}
}

// Subscribers reports the connected follower count (tests and ops).
func (h *Hub) Subscribers() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.subs)
}

// Mount registers the replication endpoints on mux.
func (h *Hub) Mount(mux *http.ServeMux) {
	mux.HandleFunc("/replicate", h.handleReplicate)
	mux.HandleFunc("/snapshot", h.handleSnapshot)
}

// handleReplicate streams WAL records with seq > from as chunked newline
// JSON: a handshake heartbeat (so the follower learns the epoch and the
// watermark immediately), then history from the on-disk log, then the live
// feed interleaved with periodic heartbeats. The subscription is taken
// BEFORE history replay so no record falls between the log and the feed; the
// overlap is deduped by seq.
func (h *Hub) handleReplicate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	q := r.URL.Query()
	from := uint64(0)
	if v := q.Get("from"); v != "" {
		f, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			http.Error(w, "bad from: "+err.Error(), http.StatusBadRequest)
			return
		}
		from = f
	}
	w.Header().Set(EpochHeader, h.cfg.Epoch)
	// Epoch fencing: a follower resuming a stream from a previous primary
	// life must re-anchor on a snapshot, not splice two histories together.
	if e := q.Get("epoch"); e != "" && e != h.cfg.Epoch {
		replEpochFences.Inc()
		http.Error(w, fmt.Sprintf("epoch %s is not current (%s): catch up from /snapshot", e, h.cfg.Epoch), http.StatusConflict)
		return
	}
	// Compaction fencing: history at or below the base is no longer in the
	// log; 410 tells the follower the tail is lost, not merely interrupted.
	if base := h.cfg.Base(); from < base {
		http.Error(w, fmt.Sprintf("wal starts after seq %d: catch up from /snapshot", base), http.StatusGone)
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")

	_, ch, cancel := h.subscribe()
	defer cancel()

	hb, err := encodeHeartbeat(h.cfg.Seq(), h.cfg.Epoch)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	if _, err := w.Write(hb); err != nil {
		return
	}
	fl.Flush()

	last, ok := h.streamHistory(w, from)
	if !ok {
		return
	}
	if last < from {
		last = from
	}
	fl.Flush()

	tick := time.NewTicker(h.cfg.HeartbeatEvery)
	defer tick.Stop()
	done := r.Context().Done()
	for {
		select {
		case <-done:
			return
		case p, open := <-ch:
			if !open {
				return // dropped by Publish: the follower reconnects
			}
			if p.seq <= last {
				continue // already sent from history
			}
			if _, err := w.Write(p.line); err != nil {
				return
			}
			last = p.seq
			fl.Flush()
		case <-tick.C:
			hb, err := encodeHeartbeat(h.cfg.Seq(), h.cfg.Epoch)
			if err != nil {
				return
			}
			if _, err := w.Write(hb); err != nil {
				return
			}
			fl.Flush()
		}
	}
}

// streamHistory replays the on-disk log from the cursor into the response,
// re-encoding through the same canonical encoder that wrote the file, so the
// bytes on the wire match the bytes on disk. Returns the last streamed seq
// and whether the live loop should proceed: a write failure or a gap right
// at the cursor (the log was compacted between the base check and the open —
// the follower must re-anchor) both abort the stream.
func (h *Hub) streamHistory(w io.Writer, from uint64) (uint64, bool) {
	if h.cfg.OpenWAL == nil {
		return from, true
	}
	rc, err := h.cfg.OpenWAL()
	if err != nil {
		h.cfg.Logger.Warn("replication history open failed", "err", err)
		return from, false
	}
	if rc == nil {
		return from, true
	}
	defer rc.Close() //rkvet:ignore dropperr read-side close; nothing to recover
	want := from
	res, err := persist.ReplayWALFrom(rc, from, func(seq uint64, li feature.Labeled) error {
		if want != 0 && seq != want+1 {
			return fmt.Errorf("replica: wal history gap: have %d, next record is %d", want, seq)
		}
		want = seq
		line, eerr := persist.EncodeWALRecord(seq, li)
		if eerr != nil {
			return eerr
		}
		_, werr := w.Write(line)
		return werr
	})
	if err != nil {
		h.cfg.Logger.Warn("replication history stream aborted", "err", err)
		return res.LastSeq, false
	}
	// A torn tail in the primary's own log is the primary's recovery
	// problem, not the follower's: stream what is intact and go live.
	return res.LastSeq, true
}

// handleSnapshot streams the primary's current rows + watermark in the
// snapshot encoding — the catch-up path for followers whose WAL tail is gone.
func (h *Hub) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	w.Header().Set(EpochHeader, h.cfg.Epoch)
	w.Header().Set(SeqHeader, strconv.FormatUint(h.cfg.Seq(), 10))
	w.Header().Set("Content-Type", "application/octet-stream")
	if err := h.cfg.WriteSnapshot(w); err != nil {
		h.cfg.Logger.Warn("snapshot stream failed", "err", err)
	}
}

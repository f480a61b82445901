package service

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/xai-db/relativekeys/internal/feature"
	"github.com/xai-db/relativekeys/internal/persist"
)

// Async ExplainAll jobs (DESIGN.md §15). A large batch explain is minutes of
// solver work — far past any sane HTTP deadline — so batches run as jobs:
// POST /jobs acks immediately with an id, GET /jobs?id= polls progress and
// the completed prefix, GET /jobs/stream?id= tails results as they finish.
// The runner is a single goroutine that solves items sequentially, taking the
// state read-lock once per item, so a running batch interleaves with
// interactive traffic instead of starving it; each item goes through the
// explanation cache like any other explain, so batches and interactive
// requests share work.
//
// With a state directory configured, the job spec is written atomically at
// submit and every completed item is checkpointed to a per-job CRC log before
// it is acked into memory. A restart reloads unfinished jobs, replays the
// checkpoint log (re-serving byte-identical bytes for the completed prefix,
// truncating a torn final record), and resumes solving at the first
// unfinished item.

// Job lifecycle states.
const (
	jobQueued  = "queued"
	jobRunning = "running"
	jobDone    = "done"
	jobFailed  = "failed"
)

const (
	defaultMaxJobItems = 100000
	jobsKept           = 64 // finished jobs retained for polling, newest first
	jobSpecSuffix      = ".job"
	jobLogSuffix       = ".results"
)

// JobItemResult is one batch item's outcome, stored and served verbatim: the
// bytes checkpointed at solve time are the bytes every later poll, stream,
// and post-restart read returns.
type JobItemResult struct {
	Index int              `json:"index"`
	NoKey bool             `json:"no_key,omitempty"`
	Error string           `json:"error,omitempty"`
	Resp  *ExplainResponse `json:"explanation,omitempty"`
}

// JobSubmitRequest is the POST /jobs body: the batch items plus the optional
// alpha override and per-item solve deadline, which default like /explain.
type JobSubmitRequest struct {
	Items      []ExplainItem `json:"items"`
	Alpha      float64       `json:"alpha,omitempty"`
	DeadlineMS int64         `json:"deadline_ms,omitempty"`
}

// ExplainItem is one batch member in wire form.
type ExplainItem struct {
	Values     map[string]string `json:"values"`
	Prediction string            `json:"prediction"`
}

// JobStatus is the GET /jobs?id= body. Results holds the completed prefix in
// item order (the runner is sequential, so completion order is index order).
type JobStatus struct {
	ID      string            `json:"id"`
	State   string            `json:"state"`
	Total   int               `json:"total"`
	Done    int               `json:"done"`
	Error   string            `json:"error,omitempty"`
	Results []json.RawMessage `json:"results,omitempty"`
}

// JobProgress is the per-job line in /stats and GET /jobs.
type JobProgress struct {
	ID    string `json:"id"`
	State string `json:"state"`
	Done  int    `json:"done"`
	Total int    `json:"total"`
}

// JobsStats aggregates the job subsystem for /stats.
type JobsStats struct {
	Submitted int64         `json:"submitted"`
	Completed int64         `json:"completed"`
	Failed    int64         `json:"failed,omitempty"`
	Resumed   int64         `json:"resumed,omitempty"`
	ItemsDone int64         `json:"items_done"`
	Jobs      []JobProgress `json:"jobs,omitempty"`
}

// jobSpecFile is the durable form of one submitted batch, written atomically
// before the submit is acked: what a restart needs to finish the job.
type jobSpecFile struct {
	ID         string    `json:"id"`
	Alpha      float64   `json:"alpha"`
	DeadlineMS int64     `json:"deadline_ms,omitempty"`
	Items      []jobItem `json:"items"`
}

type jobItem struct {
	X []int32 `json:"x"`
	Y int32   `json:"y"`
}

// job is one batch in memory.
type job struct {
	id       string
	alpha    float64
	deadline time.Duration
	items    []feature.Labeled
	log      *persist.JobLog // nil = memory-only job

	mu       sync.Mutex
	state    string            // guarded by mu
	results  []json.RawMessage // guarded by mu; completed prefix, index order
	errMsg   string            // guarded by mu
	progress chan struct{}     // guarded by mu; closed and replaced on every change
}

// bump wakes every waiter. Callers hold j.mu.
func (j *job) bumpLocked() {
	close(j.progress)
	j.progress = make(chan struct{})
}

func (j *job) setState(state, errMsg string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = state
	if errMsg != "" {
		j.errMsg = errMsg
	}
	j.bumpLocked()
}

// complete acks one finished item into memory (after it is durable, when a
// log is attached).
func (j *job) complete(body json.RawMessage) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.results = append(j.results, body)
	j.bumpLocked()
}

// snapshot returns the status plus the channel that closes on the next
// change, so a streamer can wait without polling. Results holds copies of
// the completed entries from index from on: 0 for a full poll, the count
// already written for a streamer's wake, so tailing n items copies each entry
// once instead of the whole completed prefix on every wake.
func (j *job) snapshot(from int) (JobStatus, chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:    j.id,
		State: j.state,
		Total: len(j.items),
		Done:  len(j.results),
		Error: j.errMsg,
	}
	if from < len(j.results) {
		st.Results = append([]json.RawMessage(nil), j.results[from:]...)
	}
	return st, j.progress
}

// jobStore owns every job and the single runner goroutine. Its lock is its
// own domain below Server.mu: /stats reads it while holding the state
// read-lock, and the runner never touches Server.mu while holding it.
type jobStore struct {
	srv      *Server
	dir      string // "" = memory-only jobs
	maxItems int

	mu       sync.Mutex
	jobs     map[string]*job // guarded by mu
	order    []string        // guarded by mu; submission order, for listing
	finished []string        // guarded by mu; finished ids oldest-first, for pruning
	queue    []*job          // guarded by mu
	runnerOn bool            // guarded by mu
	stopped  bool            // guarded by mu

	wake chan struct{} // cap 1; nudges the runner
	stop chan struct{} // closed by close()
}

// newJobStore builds the store and resumes any unfinished persisted jobs.
func newJobStore(srv *Server, dir string, maxItems int) (*jobStore, error) {
	if maxItems <= 0 {
		maxItems = defaultMaxJobItems
	}
	st := &jobStore{
		srv:      srv,
		dir:      dir,
		maxItems: maxItems,
		jobs:     make(map[string]*job),
		wake:     make(chan struct{}, 1),
		stop:     make(chan struct{}),
	}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		if err := st.resume(); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// resume reloads persisted jobs: each spec file is paired with its checkpoint
// log, the completed prefix is replayed into memory byte-for-byte, and
// anything unfinished re-enters the queue. persist.RecoverJobLog truncates a
// torn final checkpoint (crash signature); a mid-file corrupt log is
// discarded here and the batch recomputed from its spec — job results are
// derived data.
func (st *jobStore) resume() error {
	names, err := filepath.Glob(filepath.Join(st.dir, "*"+jobSpecSuffix))
	if err != nil {
		return err
	}
	sort.Strings(names)
	for _, name := range names {
		b, err := os.ReadFile(name)
		if err != nil {
			return err
		}
		var spec jobSpecFile
		if err := json.Unmarshal(b, &spec); err != nil {
			return fmt.Errorf("service: job spec %s: %w", filepath.Base(name), err)
		}
		if spec.ID == "" || strings.TrimSuffix(filepath.Base(name), jobSpecSuffix) != spec.ID {
			return fmt.Errorf("service: job spec %s: id %q does not match the file name", filepath.Base(name), spec.ID)
		}
		j := &job{
			id:       spec.ID,
			alpha:    spec.Alpha,
			deadline: time.Duration(spec.DeadlineMS) * time.Millisecond,
			state:    jobQueued,
			progress: make(chan struct{}),
		}
		for _, it := range spec.Items {
			j.items = append(j.items, feature.Labeled{X: feature.Instance(it.X), Y: feature.Label(it.Y)})
		}
		logPath := st.logPath(spec.ID)
		next := 0
		_, err = persist.RecoverJobLog(logPath, func(index int, body []byte) error {
			if index != next {
				return fmt.Errorf("checkpoint %d out of order (want %d)", index, next)
			}
			next++
			j.results = append(j.results, append(json.RawMessage(nil), body...))
			return nil
		})
		if err != nil {
			// Job results are recomputable; a damaged log costs re-solving, not
			// data. Start the batch over.
			st.srv.logger.Warn("discarding corrupt job checkpoint log", "job", spec.ID, "err", err)
			j.results = nil
			if rerr := os.Remove(logPath); rerr != nil && !os.IsNotExist(rerr) {
				return rerr
			}
		}
		if len(j.results) >= len(j.items) {
			j.state = jobDone
			st.addFinishedLocked(j) // store not shared yet; lock not needed but harmless
			continue
		}
		log, err := persist.OpenJobLog(logPath)
		if err != nil {
			return err
		}
		j.log = log
		st.srv.metrics.jobResumed.Inc()
		if err := st.enqueue(j); err != nil {
			return err
		}
	}
	return nil
}

// addFinishedLocked registers a finished job and prunes past the retention
// bound. Callers hold st.mu (or own the store exclusively, as resume does).
func (st *jobStore) addFinishedLocked(j *job) {
	st.jobs[j.id] = j
	st.order = append(st.order, j.id)
	st.finished = append(st.finished, j.id)
	st.pruneLocked()
}

// pruneLocked drops the oldest finished jobs past jobsKept, with their
// files. Callers hold st.mu.
func (st *jobStore) pruneLocked() {
	for len(st.finished) > jobsKept {
		id := st.finished[0]
		st.finished = st.finished[1:]
		delete(st.jobs, id)
		for i, oid := range st.order {
			if oid == id {
				st.order = append(st.order[:i], st.order[i+1:]...)
				break
			}
		}
		if st.dir != "" {
			os.Remove(st.specPath(id)) //rkvet:ignore dropperr best-effort prune of a retired job's files
			os.Remove(st.logPath(id))  //rkvet:ignore dropperr best-effort prune of a retired job's files
		}
	}
}

func (st *jobStore) specPath(id string) string { return filepath.Join(st.dir, id+jobSpecSuffix) }
func (st *jobStore) logPath(id string) string  { return filepath.Join(st.dir, id+jobLogSuffix) }

// submit validates, persists, and queues one batch, returning the job id.
func (st *jobStore) submit(items []feature.Labeled, alpha float64, deadline time.Duration) (string, error) {
	idb := make([]byte, 8)
	if _, err := rand.Read(idb); err != nil {
		return "", err
	}
	id := hex.EncodeToString(idb)
	j := &job{
		id:       id,
		alpha:    alpha,
		deadline: deadline,
		items:    items,
		state:    jobQueued,
		progress: make(chan struct{}),
	}
	if st.dir != "" {
		spec := jobSpecFile{ID: id, Alpha: alpha, DeadlineMS: int64(deadline / time.Millisecond)}
		for _, li := range items {
			spec.Items = append(spec.Items, jobItem{X: append([]int32(nil), li.X...), Y: li.Y})
		}
		if err := persist.WriteFileAtomic(st.specPath(id), func(w io.Writer) error {
			return json.NewEncoder(w).Encode(&spec)
		}); err != nil {
			return "", err
		}
		log, err := persist.OpenJobLog(st.logPath(id))
		if err != nil {
			return "", err
		}
		j.log = log
	}
	if err := st.enqueue(j); err != nil {
		// The store stopped between the handler's drain check and here; undo
		// the durable submit so the rejected job does not resurrect on the
		// next boot behind the client's 503.
		st.closeJobLog(j)
		if st.dir != "" {
			os.Remove(st.specPath(id)) //rkvet:ignore dropperr best-effort cleanup of a rejected submit
			os.Remove(st.logPath(id))  //rkvet:ignore dropperr best-effort cleanup of a rejected submit
		}
		return "", err
	}
	st.srv.metrics.jobSubmitted.Inc()
	return id, nil
}

// enqueue registers the job and nudges (lazily starting) the runner. It
// re-checks stopped under st.mu: a submit racing Close() must be rejected
// here, or the job would sit "queued" forever with no runner to pick it up.
func (st *jobStore) enqueue(j *job) error {
	st.mu.Lock()
	if st.stopped {
		st.mu.Unlock()
		return errDraining
	}
	if _, ok := st.jobs[j.id]; !ok {
		st.jobs[j.id] = j
		st.order = append(st.order, j.id)
	}
	st.queue = append(st.queue, j)
	if !st.runnerOn {
		st.runnerOn = true
		go st.run()
	}
	st.mu.Unlock()
	select {
	case st.wake <- struct{}{}:
	default:
	}
	return nil
}

// run is the single runner goroutine: pop, solve, repeat.
func (st *jobStore) run() {
	for {
		st.mu.Lock()
		if st.stopped {
			st.mu.Unlock()
			return
		}
		var j *job
		if len(st.queue) > 0 {
			j = st.queue[0]
			st.queue = st.queue[1:]
		}
		st.mu.Unlock()
		if j == nil {
			select {
			case <-st.wake:
				continue
			case <-st.stop:
				return
			}
		}
		st.runJob(j)
	}
}

// runJob solves the job's unfinished suffix item by item, checkpointing each
// result before acking it. The state read-lock is taken once per item, so a
// long batch never starves interactive explains; each item rides the
// explanation cache like interactive traffic.
func (st *jobStore) runJob(j *job) {
	j.setState(jobRunning, "")
	start := len(j.results) // runner owns the job; no concurrent writer
	for idx := start; idx < len(j.items); idx++ {
		select {
		case <-st.stop:
			// Shutting down: leave the job queued; a persisted job resumes
			// from its checkpoint on the next boot.
			j.setState(jobQueued, "")
			return
		default:
		}
		body, err := st.solveItem(j, idx)
		if err == nil && j.log != nil {
			if err = j.log.Append(idx, body); err == nil {
				err = j.log.Sync()
			}
		}
		if err != nil {
			// The item could not be solved or made durable; the batch cannot
			// claim completeness, so it fails loudly rather than skipping.
			st.srv.metrics.jobFailed.Inc()
			j.setState(jobFailed, fmt.Sprintf("item %d: %v", idx, err))
			st.closeJobLog(j)
			st.retire(j)
			return
		}
		st.srv.metrics.jobItemsDone.Inc()
		j.complete(body)
	}
	st.srv.metrics.jobCompleted.Inc()
	j.setState(jobDone, "")
	st.closeJobLog(j)
	st.retire(j)
}

func (st *jobStore) closeJobLog(j *job) {
	if j.log == nil {
		return
	}
	if err := j.log.Close(); err != nil {
		st.srv.logger.Warn("closing job checkpoint log", "job", j.id, "err", err)
	}
	j.log = nil
}

func (st *jobStore) retire(j *job) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.finished = append(st.finished, j.id)
	st.pruneLocked()
}

// solveItem runs one batch item through the standard explain path and renders
// the durable result bytes.
func (st *jobStore) solveItem(j *job, idx int) (json.RawMessage, error) {
	ctx := context.Background() //rkvet:ignore ctxflow a job outlives its submitting request; the per-item deadline below is its only bound
	if j.deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, j.deadline)
		defer cancel()
	}
	s := st.srv
	s.mu.RLock()
	e, _, err := s.explainLocked(ctx, j.items[idx], j.alpha, false)
	s.mu.RUnlock()
	res := JobItemResult{Index: idx}
	switch {
	case err != nil:
		res.Error = err.Error()
	case e.noKey:
		res.NoKey = true
	default:
		if e.resp.Degraded {
			s.metrics.explainDegraded.Inc()
		}
		resp := e.resp
		res.Resp = &resp
	}
	return json.Marshal(&res)
}

// get returns the job by id.
func (st *jobStore) get(id string) (*job, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	j, ok := st.jobs[id]
	return j, ok
}

// list returns progress for every known job in submission order.
func (st *jobStore) list() []JobProgress {
	st.mu.Lock()
	ids := append([]string(nil), st.order...)
	jobs := make([]*job, 0, len(ids))
	for _, id := range ids {
		jobs = append(jobs, st.jobs[id])
	}
	st.mu.Unlock()
	out := make([]JobProgress, 0, len(jobs))
	for _, j := range jobs {
		s, _ := j.snapshot(math.MaxInt) // progress only: no results
		out = append(out, JobProgress{ID: s.ID, State: s.State, Done: s.Done, Total: s.Total})
	}
	return out
}

// statsSnapshot renders the /stats block: aggregate counters plus per-job
// progress for unfinished jobs.
func (st *jobStore) statsSnapshot() *JobsStats {
	m := st.srv.metrics
	js := &JobsStats{
		Submitted: m.jobSubmitted.Value(),
		Completed: m.jobCompleted.Value(),
		Failed:    m.jobFailed.Value(),
		Resumed:   m.jobResumed.Value(),
		ItemsDone: m.jobItemsDone.Value(),
	}
	if js.Submitted == 0 && js.Completed == 0 && js.Resumed == 0 {
		return nil
	}
	for _, p := range st.list() {
		if p.State == jobQueued || p.State == jobRunning {
			js.Jobs = append(js.Jobs, p)
		}
	}
	return js
}

// close stops the runner; a running persisted job resumes on the next boot.
func (st *jobStore) close() {
	st.mu.Lock()
	if st.stopped {
		st.mu.Unlock()
		return
	}
	st.stopped = true
	st.mu.Unlock()
	close(st.stop)
}

// handleJobs serves POST /jobs (submit) and GET /jobs (poll one by id, or
// list all).
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		s.handleJobSubmit(w, r)
	case http.MethodGet:
		id := r.URL.Query().Get("id")
		if id == "" {
			writeJSON(w, s.jobs.list())
			return
		}
		j, ok := s.jobs.get(id)
		if !ok {
			http.Error(w, "unknown job "+id, http.StatusNotFound)
			return
		}
		status, _ := j.snapshot(0)
		writeJSON(w, status)
	default:
		http.Error(w, "GET or POST only", http.StatusMethodNotAllowed)
	}
}

func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	var req JobSubmitRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, "bad JSON: "+err.Error(), http.StatusBadRequest)
		return
	}
	if len(req.Items) == 0 {
		http.Error(w, "a job needs at least one item", http.StatusBadRequest)
		return
	}
	if len(req.Items) > s.jobs.maxItems {
		http.Error(w, fmt.Sprintf("job carries %d items, the service caps batches at %d", len(req.Items), s.jobs.maxItems), http.StatusRequestEntityTooLarge)
		return
	}
	alpha, deadline, err := s.resolveAlphaDeadline(req.Alpha, req.DeadlineMS)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	items := make([]feature.Labeled, 0, len(req.Items))
	for i, it := range req.Items {
		li, err := s.decode(it.Values, it.Prediction)
		if err != nil {
			http.Error(w, fmt.Sprintf("item %d: %v", i, err), http.StatusBadRequest)
			return
		}
		items = append(items, li)
	}
	s.mu.RLock()
	closed := s.closed
	s.mu.RUnlock()
	if closed {
		s.metrics.shedDraining.Inc()
		unavailable(w, errDraining.Error())
		return
	}
	id, err := s.jobs.submit(items, alpha, deadline)
	if err != nil {
		unavailable(w, "job submit: "+err.Error())
		return
	}
	w.WriteHeader(http.StatusAccepted)
	writeJSON(w, map[string]any{"id": id, "items": len(items)})
}

// handleJobStream tails one job as newline-delimited JSON: each line is a
// JobItemResult exactly as checkpointed, flushed as it completes; the stream
// ends when the job finishes (or fails, with a final error line).
func (s *Server) handleJobStream(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	id := r.URL.Query().Get("id")
	j, ok := s.jobs.get(id)
	if !ok {
		http.Error(w, "unknown job "+id, http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	sent := 0
	for {
		status, change := j.snapshot(sent)
		for _, res := range status.Results {
			// Two writes, not append(res, '\n'): the RawMessage backing
			// array is shared with the stored job results and every other
			// streamer, and an in-place append would race on the byte past len.
			if _, err := w.Write(res); err != nil {
				return
			}
			if _, err := io.WriteString(w, "\n"); err != nil {
				return
			}
		}
		sent += len(status.Results)
		if flusher != nil {
			flusher.Flush()
		}
		if status.State == jobDone {
			return
		}
		if status.State == jobFailed {
			fmt.Fprintf(w, "{\"error\":%q}\n", status.Error)
			return
		}
		select {
		case <-change:
		case <-r.Context().Done():
			return
		case <-s.jobs.stop:
			return
		}
	}
}

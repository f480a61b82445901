package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/xai-db/relativekeys/internal/cce"
	"github.com/xai-db/relativekeys/internal/core"
	"github.com/xai-db/relativekeys/internal/faultinject"
	"github.com/xai-db/relativekeys/internal/persist"
)

// postJSONErr is postJSON for goroutines: it returns the error instead of
// failing the test from off the main goroutine.
func postJSONErr(url string, body any) (*http.Response, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	return http.Post(url, "application/json", bytes.NewReader(b))
}

// TestChaosConcurrentFaults drives a server whose solver, drift monitor, and
// observation log all fail on injected schedules, under concurrent load and
// (in CI) the race detector. It asserts the robustness contract, not exact
// outcomes: every response is from the documented status set, the process
// survives, and the rollback invariant holds — the context contains exactly
// the acknowledged observations, no matter which faults fired.
func TestChaosConcurrentFaults(t *testing.T) {
	schema := robustSchema(t)
	inj := faultinject.New(1337)
	mon, err := cce.NewDriftMonitor(schema, 1.0, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	walFile, err := os.OpenFile(filepath.Join(dir, walFileName), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer walFile.Close() //rkvet:ignore dropperr test cleanup
	srv, err := NewServer(Config{
		Schema: schema,
		Alpha:  1.0,
		Monitor: &faultinject.FlakyObserver{
			Inner:    mon,
			Inj:      inj,
			FailProb: 0.2,
		},
		Solve: SolveFunc(faultinject.WrapSolve(core.SRKAnytime, inj, faultinject.SolveFaults{
			LatencyProb: 0.3,
			Latency:     20 * time.Millisecond,
			ErrProb:     0.1,
		})),
		DefaultDeadline: 5 * time.Millisecond,
		MaxInFlight:     4,
		StateDir:        dir,
		WAL: persist.NewWAL(&faultinject.FaultyWriteSyncer{
			Inner:         walFile,
			Inj:           inj,
			WriteFailProb: 0.15,
			SyncFailProb:  0.1,
		}),
		SnapshotEvery: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Warm(robustSeed()); err != nil {
		t.Fatal(err)
	}
	seeded := srv.ctx.Len()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	workers, iters := 8, 60
	if testing.Short() {
		workers, iters = 4, 20
	}
	allowed := map[string]map[int]bool{
		"/observe": {200: true, 400: true, 500: true, 503: true},
		"/explain": {200: true, 409: true, 429: true, 500: true, 503: true},
		"/stats":   {200: true},
	}
	var observeAcked atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, workers*iters)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rows := randomRows(int64(100+w), iters, schema)
			for i, li := range rows {
				var path string
				var resp *http.Response
				var err error
				switch i % 4 {
				case 0, 1:
					path = "/observe"
					body := ObserveRequest{Values: valuesOf(schema, li.X), Prediction: schema.Labels[li.Y]}
					if i%8 == 0 {
						body.Values["Income"] = "not-a-value" // deliberate 400
					}
					resp, err = postJSONErr(ts.URL+path, body)
				case 2:
					path = "/explain"
					resp, err = postJSONErr(ts.URL+path, ExplainRequest{
						Values: valuesOf(schema, li.X), Prediction: schema.Labels[li.Y],
					})
				default:
					path = "/stats"
					resp, err = http.Get(ts.URL + path)
				}
				if err != nil {
					errs <- err
					continue
				}
				if !allowed[path][resp.StatusCode] {
					errs <- fmt.Errorf("%s answered %d, outside the contract", path, resp.StatusCode)
				} else if path == "/observe" && resp.StatusCode == 200 {
					observeAcked.Add(1)
				}
				resp.Body.Close()
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// The rollback invariant under concurrent injected faults: every admitted
	// row was acknowledged, every failed observe (flaky monitor 500, faulty
	// WAL 503) was rolled back.
	if got, want := srv.ctx.Len(), seeded+int(observeAcked.Load()); got != want {
		t.Fatalf("context %d rows, want seed %d + %d acked", got, seeded, int(observeAcked.Load()))
	}
	if srv.Seq() != uint64(srv.ctx.Len()) {
		t.Fatalf("seq %d diverged from context size %d", srv.Seq(), srv.ctx.Len())
	}
	// The process is still healthy after the storm.
	stats, err := NewClient(ts.URL).Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.ContextSize != srv.ctx.Len() {
		t.Fatalf("stats after chaos: %+v", stats)
	}
}

// TestChaosObserveRollbackConcurrent focuses the monitor-failure rollback
// path: many goroutines observing through a monitor that fails a third of
// the time must leave the context holding exactly the acknowledged rows,
// with slots recycled rather than leaked.
func TestChaosObserveRollbackConcurrent(t *testing.T) {
	schema := robustSchema(t)
	mon, err := cce.NewDriftMonitor(schema, 1.0, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(Config{
		Schema:  schema,
		Alpha:   1.0,
		Monitor: &faultinject.FlakyObserver{Inner: mon, Inj: faultinject.New(7), FailProb: 0.33},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	workers, iters := 8, 40
	if testing.Short() {
		workers, iters = 4, 15
	}
	var acked, failed atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, workers*iters)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, li := range randomRows(int64(200+w), iters, schema) {
				resp, err := postJSONErr(ts.URL+"/observe", ObserveRequest{
					Values: valuesOf(schema, li.X), Prediction: schema.Labels[li.Y],
				})
				if err != nil {
					errs <- err
					continue
				}
				switch resp.StatusCode {
				case 200:
					acked.Add(1)
				case 500:
					failed.Add(1)
				default:
					errs <- fmt.Errorf("observe answered %d", resp.StatusCode)
				}
				resp.Body.Close()
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if failed.Load() == 0 {
		t.Fatal("flaky monitor never fired; the test exercised nothing")
	}
	if got := srv.ctx.Len(); got != int(acked.Load()) {
		t.Fatalf("context %d rows after concurrent rollbacks, want %d acked", got, acked.Load())
	}
	// A refused observe never takes a slot: the physical index holds exactly
	// the acknowledged rows.
	if slots := srv.ctx.Context().NumSlots(); slots != int(acked.Load()) {
		t.Fatalf("NumSlots %d, want exactly the %d acked rows", slots, acked.Load())
	}
}

package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/xai-db/relativekeys/internal/core"
	"github.com/xai-db/relativekeys/internal/feature"
	"github.com/xai-db/relativekeys/internal/persist"
)

// pollJob polls GET /jobs?id= until the job reaches a terminal state.
func pollJob(t *testing.T, url, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(url + "/jobs?id=" + id)
		if err != nil {
			t.Fatal(err)
		}
		var status JobStatus
		err = json.NewDecoder(resp.Body).Decode(&status)
		resp.Body.Close() //rkvet:ignore dropperr test teardown
		if err != nil {
			t.Fatal(err)
		}
		if status.State == jobDone || status.State == jobFailed {
			return status
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("job did not finish")
	return JobStatus{}
}

func submitJob(t *testing.T, url string, req JobSubmitRequest) (string, int) {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/jobs", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close() //rkvet:ignore dropperr test teardown
	if resp.StatusCode != http.StatusAccepted {
		body, _ := io.ReadAll(resp.Body) //rkvet:ignore dropperr diagnostic read on a failed submit
		return string(body), resp.StatusCode
	}
	var ack struct {
		ID    string `json:"id"`
		Items int    `json:"items"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	return ack.ID, resp.StatusCode
}

// TestJobLifecycle submits a batch on a memory-only server, polls it to
// completion, and checks every item agrees with a direct /explain of the same
// instance — batches must ride the same solve path as interactive traffic.
func TestJobLifecycle(t *testing.T) {
	_, ts, client := testServer(t, 0)
	observeAll(t, client)

	items := []ExplainItem{
		{Values: map[string]string{"Income": "3-4K", "Credit": "poor", "Area": "Urban"}, Prediction: "Denied"},
		{Values: map[string]string{"Income": "5-6K", "Credit": "good", "Area": "Rural"}, Prediction: "Approved"},
		// The context contradicts this one: its item records no_key, and the
		// batch still completes.
		{Values: map[string]string{"Income": "3-4K", "Credit": "poor", "Area": "Urban"}, Prediction: "Approved"},
	}
	id, code := submitJob(t, ts.URL, JobSubmitRequest{Items: items})
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, id)
	}
	status := pollJob(t, ts.URL, id)
	if status.State != jobDone || status.Done != 3 || status.Total != 3 || len(status.Results) != 3 {
		t.Fatalf("status = %+v", status)
	}
	for i, raw := range status.Results {
		var res JobItemResult
		if err := json.Unmarshal(raw, &res); err != nil {
			t.Fatal(err)
		}
		if res.Index != i {
			t.Fatalf("result %d carries index %d", i, res.Index)
		}
		if i == 2 {
			if !res.NoKey || res.Resp != nil {
				t.Fatalf("contradicted item = %+v, want no_key", res)
			}
			continue
		}
		direct, err := client.Explain(items[i].Values, items[i].Prediction, 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.Resp == nil || !reflect.DeepEqual(*res.Resp, *direct) {
			t.Fatalf("item %d: job result %+v differs from direct explain %+v", i, res.Resp, direct)
		}
	}

	// The job appears in /stats until pruned past retention.
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats StatsResponse
	err = json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close() //rkvet:ignore dropperr test teardown
	if err != nil {
		t.Fatal(err)
	}
	if stats.Jobs == nil || stats.Jobs.Submitted != 1 || stats.Jobs.Completed != 1 || stats.Jobs.ItemsDone != 3 {
		t.Fatalf("stats.jobs = %+v", stats.Jobs)
	}
}

// TestJobStream tails a finished job over /jobs/stream and checks the NDJSON
// lines equal the poll results byte for byte.
func TestJobStream(t *testing.T) {
	_, ts, client := testServer(t, 0)
	observeAll(t, client)
	items := []ExplainItem{
		{Values: map[string]string{"Income": "3-4K", "Credit": "poor", "Area": "Urban"}, Prediction: "Denied"},
		{Values: map[string]string{"Income": "5-6K", "Credit": "good", "Area": "Rural"}, Prediction: "Approved"},
	}
	id, code := submitJob(t, ts.URL, JobSubmitRequest{Items: items})
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, id)
	}
	status := pollJob(t, ts.URL, id)

	resp, err := http.Get(ts.URL + "/jobs/stream?id=" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close() //rkvet:ignore dropperr test teardown
	sc := bufio.NewScanner(resp.Body)
	var lines [][]byte
	for sc.Scan() {
		lines = append(lines, append([]byte(nil), sc.Bytes()...))
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(lines) != len(status.Results) {
		t.Fatalf("stream returned %d lines, poll %d results", len(lines), len(status.Results))
	}
	for i := range lines {
		if !bytes.Equal(lines[i], status.Results[i]) {
			t.Fatalf("stream line %d differs from poll result:\n%s\nvs\n%s", i, lines[i], status.Results[i])
		}
	}
}

// TestJobSnapshotCopiesOnlyNewResults: a streamer's wake after k new items
// copies those k entries, not the whole completed prefix.
func TestJobSnapshotCopiesOnlyNewResults(t *testing.T) {
	j := &job{id: "j", items: make([]feature.Labeled, 8), state: jobRunning, progress: make(chan struct{})}
	sent := 0
	for _, k := range []int{1, 3, 0, 4} {
		for i := 0; i < k; i++ {
			j.complete(json.RawMessage(fmt.Sprintf(`{"index":%d}`, sent+i)))
		}
		st, _ := j.snapshot(sent)
		if len(st.Results) != k || st.Done != sent+k {
			t.Fatalf("wake after %d new of %d done: copied %d entries, Done=%d", k, sent+k, len(st.Results), st.Done)
		}
		for i, r := range st.Results {
			if want := fmt.Sprintf(`{"index":%d}`, sent+i); string(r) != want {
				t.Fatalf("entry %d = %s, want %s", i, r, want)
			}
		}
		sent += k
	}
	if st, _ := j.snapshot(0); len(st.Results) != sent {
		t.Fatalf("full poll copied %d entries, want %d", len(st.Results), sent)
	}
	if st, _ := j.snapshot(math.MaxInt); st.Results != nil || st.Done != sent {
		t.Fatalf("progress snapshot: %d results, Done=%d", len(st.Results), st.Done)
	}
}

// TestJobStreamTailsRunningJob tails a job while its items complete one at a
// time, so every line arrives on its own wake (which needs the middleware to
// pass Flush through), and checks the NDJSON equals the finished job's poll
// results byte for byte.
func TestJobStreamTailsRunningJob(t *testing.T) {
	step := make(chan struct{})
	solve := func(ctx context.Context, c *core.Context, x feature.Instance, y feature.Label, alpha float64) (core.Key, bool, error) {
		<-step
		return core.SRKAnytime(ctx, c, x, y, alpha)
	}
	srv, err := NewServer(Config{Schema: robustSchema(t), Alpha: 1.0, Solve: solve})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Warm(robustSeed()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	items := []ExplainItem{
		{Values: map[string]string{"Income": "3-4K", "Credit": "poor", "Area": "Urban"}, Prediction: "Denied"},
		{Values: map[string]string{"Income": "5-6K", "Credit": "good", "Area": "Rural"}, Prediction: "Approved"},
		{Values: map[string]string{"Income": "1-2K", "Credit": "poor", "Area": "Urban"}, Prediction: "Denied"},
		{Values: map[string]string{"Income": "3-4K", "Credit": "good", "Area": "Rural"}, Prediction: "Approved"},
	}
	id, code := submitJob(t, ts.URL, JobSubmitRequest{Items: items})
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, id)
	}
	client := &http.Client{Timeout: 30 * time.Second}
	resp, err := client.Get(ts.URL + "/jobs/stream?id=" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close() //rkvet:ignore dropperr test teardown
	sc := bufio.NewScanner(resp.Body)
	var lines [][]byte
	for range items {
		select {
		case step <- struct{}{}:
		case <-time.After(30 * time.Second):
			t.Fatal("job runner never reached the next item's solve")
		}
		if !sc.Scan() {
			t.Fatalf("stream ended after %d lines: %v", len(lines), sc.Err())
		}
		lines = append(lines, append([]byte(nil), sc.Bytes()...))
	}
	if sc.Scan() {
		t.Fatalf("stream wrote an extra line after the last item: %s", sc.Bytes())
	}
	status := pollJob(t, ts.URL, id)
	if len(lines) != len(status.Results) {
		t.Fatalf("stream returned %d lines, poll %d results", len(lines), len(status.Results))
	}
	for i := range lines {
		if !bytes.Equal(lines[i], status.Results[i]) {
			t.Fatalf("stream line %d differs from poll result:\n%s\nvs\n%s", i, lines[i], status.Results[i])
		}
	}
}

func TestJobValidation(t *testing.T) {
	schema := robustSchema(t)
	srv, err := NewServer(Config{Schema: schema, Alpha: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	srv.jobs.maxItems = 2
	if _, err := srv.Warm(robustSeed()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	ok := ExplainItem{Values: map[string]string{"Income": "3-4K", "Credit": "poor", "Area": "Urban"}, Prediction: "Denied"}
	cases := []struct {
		name string
		req  JobSubmitRequest
		want int
	}{
		{"empty batch", JobSubmitRequest{}, http.StatusBadRequest},
		{"over the item cap", JobSubmitRequest{Items: []ExplainItem{ok, ok, ok}}, http.StatusRequestEntityTooLarge},
		{"bad alpha", JobSubmitRequest{Items: []ExplainItem{ok}, Alpha: 2}, http.StatusBadRequest},
		{"negative deadline", JobSubmitRequest{Items: []ExplainItem{ok}, DeadlineMS: -1}, http.StatusBadRequest},
		// Past math.MaxInt64/1e6 a millisecond count overflows a time.Duration:
		// this one would wrap to a positive 448.384µs, the next to a negative
		// budget (no deadline at all).
		{"deadline wraps positive", JobSubmitRequest{Items: []ExplainItem{ok}, DeadlineMS: 18446744073710}, http.StatusBadRequest},
		{"deadline wraps negative", JobSubmitRequest{Items: []ExplainItem{ok}, DeadlineMS: 9223372036855}, http.StatusBadRequest},
		{"undecodable item", JobSubmitRequest{Items: []ExplainItem{{Values: map[string]string{"Income": "nope"}, Prediction: "Denied"}}}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		if body, code := submitJob(t, ts.URL, tc.req); code != tc.want {
			t.Errorf("%s: status %d (%s), want %d", tc.name, code, body, tc.want)
		}
	}
	for _, path := range []string{"/jobs?id=missing", "/jobs/stream?id=missing"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close() //rkvet:ignore dropperr test teardown
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s: status %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestJobSubmitAfterStoreStopped pins the shutdown race: a submit that slips
// past the handler's drain check after Close() began must be rejected by the
// store itself — accepted-but-never-run jobs would poll as "queued" forever.
// A rejected persisted submit also leaves no spec behind to resurrect on the
// next boot.
func TestJobSubmitAfterStoreStopped(t *testing.T) {
	dir := t.TempDir()
	srv, err := NewServer(Config{Schema: robustSchema(t), Alpha: 1.0, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Warm(robustSeed()); err != nil {
		t.Fatal(err)
	}
	li, err := srv.decode(map[string]string{"Income": "3-4K", "Credit": "poor", "Area": "Urban"}, "Denied")
	if err != nil {
		t.Fatal(err)
	}
	srv.jobs.close()
	if _, err := srv.jobs.submit([]feature.Labeled{li}, 1.0, 0); !errors.Is(err, errDraining) {
		t.Fatalf("submit after store close: %v, want errDraining", err)
	}
	if n := len(srv.jobs.list()); n != 0 {
		t.Fatalf("rejected submit registered %d job(s)", n)
	}
	specs, err := filepath.Glob(filepath.Join(srv.jobs.dir, "*"+jobSpecSuffix))
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 0 {
		t.Fatalf("rejected submit left spec files behind: %v", specs)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

// seedPersistedServer boots a server over dir and persists the robust seed,
// so a later boot from the same dir recovers a populated context.
func seedPersistedServer(t *testing.T, dir string) {
	t.Helper()
	srv, err := NewServer(Config{Schema: robustSchema(t), Alpha: 1.0, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Warm(robustSeed()); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

// writeJobFixture handcrafts an unfinished persisted job: a 4-item spec plus
// a checkpoint log holding two completed items with distinctive marker bytes
// no real solve could produce — so the resume test can prove the completed
// prefix is replayed verbatim, not recomputed.
func writeJobFixture(t *testing.T, dir, id string) (markers [][]byte) {
	t.Helper()
	jobsDir := filepath.Join(dir, "jobs")
	if err := os.MkdirAll(jobsDir, 0o755); err != nil {
		t.Fatal(err)
	}
	spec := jobSpecFile{
		ID:    id,
		Alpha: 1.0,
		Items: []jobItem{
			{X: []int32{1, 0, 0}, Y: 0},
			{X: []int32{2, 1, 1}, Y: 1},
			{X: []int32{1, 1, 1}, Y: 1},
			{X: []int32{0, 1, 0}, Y: 0},
		},
	}
	b, err := json.Marshal(&spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(jobsDir, id+".job"), b, 0o644); err != nil {
		t.Fatal(err)
	}
	log, err := persist.OpenJobLog(filepath.Join(jobsDir, id+".results"))
	if err != nil {
		t.Fatal(err)
	}
	markers = [][]byte{
		[]byte(`{"index":0,"explanation":{"features":["HANDCRAFTED-0"],"rule":"verbatim-replay-proof","precision":1,"coverage":1,"context_size":6}}`),
		[]byte(`{"index":1,"explanation":{"features":["HANDCRAFTED-1"],"rule":"verbatim-replay-proof","precision":1,"coverage":1,"context_size":6}}`),
	}
	for i, m := range markers {
		if err := log.Append(i, m); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	return markers
}

// TestJobResumeTornLog is the crash-resume contract: a job whose checkpoint
// log ends in a torn record (the kill -9 signature) resumes on the next boot,
// re-serves the intact completed prefix byte-for-byte without re-solving, and
// solves only the unfinished suffix.
func TestJobResumeTornLog(t *testing.T) {
	dir := t.TempDir()
	seedPersistedServer(t, dir)
	const id = "deadbeef00000001"
	markers := writeJobFixture(t, dir, id)

	// Tear the log: half of checkpoint 2, cut mid-record with no newline.
	logPath := filepath.Join(dir, "jobs", id+".results")
	torn, err := persist.EncodeJobResult(2, []byte(`{"index":2}`))
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(logPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(torn[:len(torn)/2]); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	srv, err := NewServer(Config{Schema: robustSchema(t), Alpha: 1.0, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() }) //rkvet:ignore dropperr test teardown
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	status := pollJob(t, ts.URL, id)
	if status.State != jobDone || len(status.Results) != 4 {
		t.Fatalf("resumed job = %+v", status)
	}
	for i, m := range markers {
		if !bytes.Equal(status.Results[i], m) {
			t.Fatalf("checkpointed result %d was not re-served verbatim:\n%s\nvs\n%s", i, status.Results[i], m)
		}
	}
	// The suffix was solved fresh against the recovered context: each result
	// must agree with a direct explain of the same instance today.
	client := NewClient(ts.URL)
	want := []struct {
		values map[string]string
		pred   string
	}{
		{map[string]string{"Income": "3-4K", "Credit": "good", "Area": "Rural"}, "Approved"},
		{map[string]string{"Income": "1-2K", "Credit": "good", "Area": "Urban"}, "Denied"},
	}
	for i, w := range want {
		var res JobItemResult
		if err := json.Unmarshal(status.Results[2+i], &res); err != nil {
			t.Fatal(err)
		}
		if res.Index != 2+i || res.Resp == nil {
			t.Fatalf("resumed suffix result = %+v", res)
		}
		direct, err := client.Explain(w.values, w.pred, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(*res.Resp, *direct) {
			t.Fatalf("suffix item %d: %+v differs from direct explain %+v", i, res.Resp, direct)
		}
	}
	// /stats records the resume.
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats StatsResponse
	err = json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close() //rkvet:ignore dropperr test teardown
	if err != nil {
		t.Fatal(err)
	}
	if stats.Jobs == nil || stats.Jobs.Resumed != 1 {
		t.Fatalf("stats.jobs = %+v, want resumed=1", stats.Jobs)
	}
	// The torn bytes are gone from disk: a fresh replay reads exactly the
	// four intact records.
	res, err := persist.RecoverJobLog(logPath, func(int, []byte) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if res.Applied != 4 || res.Torn {
		t.Fatalf("post-resume log replay = %+v, want 4 clean records", res)
	}
}

// TestJobResumeCorruptLog damages a checkpoint mid-file — not a crash tail —
// and asserts the resume treats the results as the derived data they are:
// the log is discarded and the whole batch recomputed, rather than refusing
// to boot or serving damaged bytes.
func TestJobResumeCorruptLog(t *testing.T) {
	dir := t.TempDir()
	seedPersistedServer(t, dir)
	const id = "deadbeef00000002"
	writeJobFixture(t, dir, id)

	logPath := filepath.Join(dir, "jobs", id+".results")
	b, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	b[10] ^= 0xff // first record, followed by an intact one: mid-file damage
	if err := os.WriteFile(logPath, b, 0o644); err != nil {
		t.Fatal(err)
	}

	srv, err := NewServer(Config{Schema: robustSchema(t), Alpha: 1.0, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() }) //rkvet:ignore dropperr test teardown
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	status := pollJob(t, ts.URL, id)
	if status.State != jobDone || len(status.Results) != 4 {
		t.Fatalf("recomputed job = %+v", status)
	}
	// Every result is freshly solved: the handcrafted marker bytes must not
	// survive a discarded log.
	for i, raw := range status.Results {
		if bytes.Contains(raw, []byte("HANDCRAFTED")) {
			t.Fatalf("result %d served from the corrupt log: %s", i, raw)
		}
		var res JobItemResult
		if err := json.Unmarshal(raw, &res); err != nil {
			t.Fatal(err)
		}
		if res.Index != i || res.Resp == nil {
			t.Fatalf("recomputed result %d = %+v", i, res)
		}
	}
}

// TestJobFinishedJobSurvivesRestart: a done persisted job stays pollable
// after a restart (its spec and log are still on disk within retention).
func TestJobFinishedJobSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	schema := robustSchema(t)
	srvA, err := NewServer(Config{Schema: schema, Alpha: 1.0, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srvA.Warm(robustSeed()); err != nil {
		t.Fatal(err)
	}
	tsA := httptest.NewServer(srvA.Handler())
	items := []ExplainItem{
		{Values: map[string]string{"Income": "3-4K", "Credit": "poor", "Area": "Urban"}, Prediction: "Denied"},
	}
	id, code := submitJob(t, tsA.URL, JobSubmitRequest{Items: items})
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", code, id)
	}
	statusA := pollJob(t, tsA.URL, id)
	tsA.Close()
	if err := srvA.Close(); err != nil {
		t.Fatal(err)
	}

	srvB, err := NewServer(Config{Schema: schema, Alpha: 1.0, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srvB.Close() }) //rkvet:ignore dropperr test teardown
	tsB := httptest.NewServer(srvB.Handler())
	t.Cleanup(tsB.Close)
	statusB := pollJob(t, tsB.URL, id)
	if statusB.State != jobDone || len(statusB.Results) != len(statusA.Results) {
		t.Fatalf("restarted status = %+v, want %+v", statusB, statusA)
	}
	for i := range statusA.Results {
		if !bytes.Equal(statusA.Results[i], statusB.Results[i]) {
			t.Fatalf("result %d changed across restart:\n%s\nvs\n%s", i, statusA.Results[i], statusB.Results[i])
		}
	}
}

// TestJobPruneKeepsNewest: finishing one job past the retention bound prunes
// the oldest finished job — it stops polling and its spec and checkpoint
// files leave <StateDir>/jobs — while the newest jobsKept stay pollable.
func TestJobPruneKeepsNewest(t *testing.T) {
	dir := t.TempDir()
	srv, err := NewServer(Config{Schema: robustSchema(t), Alpha: 1.0, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() }) //rkvet:ignore dropperr test teardown
	if _, err := srv.Warm(robustSeed()); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	items := []ExplainItem{
		{Values: map[string]string{"Income": "3-4K", "Credit": "poor", "Area": "Urban"}, Prediction: "Denied"},
	}
	ids := make([]string, jobsKept+1)
	for i := range ids {
		id, code := submitJob(t, ts.URL, JobSubmitRequest{Items: items})
		if code != http.StatusAccepted {
			t.Fatalf("submit %d: %d %s", i, code, id)
		}
		ids[i] = id
	}
	// The runner finishes jobs in submission order and prunes right after
	// marking one done, so wait for the oldest to go rather than racing it.
	pollJob(t, ts.URL, ids[jobsKept])
	oldest := ids[0]
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/jobs?id=" + oldest)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close() //rkvet:ignore dropperr test teardown
		if resp.StatusCode == http.StatusNotFound {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("oldest job still answers %d after job %d finished", resp.StatusCode, jobsKept+1)
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, suffix := range []string{jobSpecSuffix, jobLogSuffix} {
		if _, err := os.Stat(filepath.Join(dir, "jobs", oldest+suffix)); !os.IsNotExist(err) {
			t.Fatalf("pruned job's %s file still on disk (stat err %v)", suffix, err)
		}
		if _, err := os.Stat(filepath.Join(dir, "jobs", ids[1]+suffix)); err != nil {
			t.Fatalf("kept job's %s file: %v", suffix, err)
		}
	}
	for _, id := range ids[1:] {
		if status := pollJob(t, ts.URL, id); status.State != jobDone || len(status.Results) != 1 {
			t.Fatalf("kept job %s = %+v", id, status)
		}
	}
}

// TestJobFailedStream fails a job's first checkpoint: the runner solves under
// the state read-lock, so holding the write lock across the submit parks it
// while the test closes the job's checkpoint log. The state dir's 0x7f byte
// reaches the failure message, which Go quoting would write as \x7f; the
// stream's final line must still decode as JSON, and the poll, /stats and
// /metrics must each report the one failure.
func TestJobFailedStream(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "st\x7fate")
	srv, err := NewServer(Config{Schema: robustSchema(t), Alpha: 1.0, StateDir: dir})
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
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	srv.mu.Lock()
	id, err := srv.jobs.submit(robustSeed()[:1], 1.0, 0)
	if err == nil {
		j, _ := srv.jobs.get(id)
		err = j.log.Close()
	}
	srv.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}

	status := pollJob(t, ts.URL, id)
	if status.State != jobFailed || !strings.Contains(status.Error, "st\x7fate") || status.Done != 0 {
		t.Fatalf("status = %+v, want failed with the state dir in the message", status)
	}

	resp, err := http.Get(ts.URL + "/jobs/stream?id=" + id)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(body), "\n"), "\n")
	var last struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("final stream line does not decode: %v\n%s", err, lines[len(lines)-1])
	}
	if last.Error != status.Error {
		t.Fatalf("stream error %q, poll error %q", last.Error, status.Error)
	}

	resp, err = http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats StatsResponse
	err = json.NewDecoder(resp.Body).Decode(&stats)
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	if stats.Jobs == nil || stats.Jobs.Failed != 1 || stats.Jobs.Completed != 0 {
		t.Fatalf("stats.jobs = %+v, want one failed job", stats.Jobs)
	}
	if v := scrape(t, ts.URL)[`rk_jobs_total{event="failed"}`]; v != 1 {
		t.Fatalf(`rk_jobs_total{event="failed"} = %v, want 1`, v)
	}
}

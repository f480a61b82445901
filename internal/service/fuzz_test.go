package service

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"
)

// FuzzRequestBodies posts fuzzed bytes to /observe, /explain or /jobs
// (endpoint mod 3) on one in-process server over robustSchema, warmed with
// robustSeed and running a drift panel. Request bodies are the service's
// untrusted input: none may draw a 5xx or a recovered panic, and an observe
// grows the context by exactly one row when it answers 200 and by none
// otherwise. The committed corpus (testdata/fuzz) holds a valid body per
// endpoint, a truncated observe and an explain with an out-of-domain value.
func FuzzRequestBodies(f *testing.F) {
	srv, err := NewServer(Config{Schema: robustSchema(f), Alpha: 1.0, PanelSize: 3})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() {
		if err := srv.Close(); err != nil {
			f.Error(err)
		}
	})
	if _, err := srv.Warm(robustSeed()); err != nil {
		f.Fatal(err)
	}
	h := srv.Handler()
	paths := []string{"/observe", "/explain", "/jobs"}
	f.Fuzz(func(t *testing.T, endpoint byte, body []byte) {
		path := paths[int(endpoint)%len(paths)]
		before := srv.ContextSize()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if rec.Code >= 500 {
			t.Fatalf("POST %s %q answered %d: %s", path, body, rec.Code, rec.Body)
		}
		if n := srv.metrics.panicsRecovered.Value(); n != 0 {
			t.Fatalf("POST %s %q: %d handler panics recovered", path, body, n)
		}
		want := 0
		if path == "/observe" && rec.Code == http.StatusOK {
			want = 1
		}
		if grew := srv.ContextSize() - before; grew != want {
			t.Fatalf("POST %s %q answered %d and grew the context by %d rows, want %d", path, body, rec.Code, grew, want)
		}
	})
}

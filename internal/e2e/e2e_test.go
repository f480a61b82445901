package e2e

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"strings"
	"testing"
)

// The test binary doubles as the server Boot starts: with fakeServerEnv set
// it serves a small /schema on its -addr until terminated.
const fakeServerEnv = "E2E_FAKE_SERVER"

func TestMain(m *testing.M) {
	if os.Getenv(fakeServerEnv) == "1" {
		fakeServer()
		return
	}
	os.Exit(m.Run())
}

func fakeServer() {
	fs := flag.NewFlagSet("fake", flag.ExitOnError)
	addr := fs.String("addr", "", "listen address")
	greeting := fs.String("greeting", "", "line to log at startup")
	fs.Parse(os.Args[1:]) //rkvet:ignore dropperr ExitOnError exits on a parse failure
	http.HandleFunc("/schema", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"attributes":[{"name":"Income","values":["low","high"]},{"name":"Area","values":["Urban","Rural"]}],"labels":["Denied","Approved"]}`)
	})
	fmt.Println(*greeting)
	fmt.Println(http.ListenAndServe(*addr, nil))
	os.Exit(1)
}

func TestBootFirstInstanceStop(t *testing.T) {
	t.Setenv(fakeServerEnv, "1")
	srv, err := Boot(os.Args[0], t.TempDir(), "fake", "-greeting", "fake server up")
	if err != nil {
		t.Fatal(err)
	}
	values, prediction, err := FirstInstance(srv.Base)
	if err != nil {
		srv.Stop()
		t.Fatal(err)
	}
	if len(values) != 2 || values["Income"] != "low" || values["Area"] != "Urban" || prediction != "Denied" {
		srv.Stop()
		t.Fatalf("FirstInstance = %v, %q", values, prediction)
	}
	srv.Stop()
	if _, err := Get(srv.Base + "/schema"); err == nil {
		t.Fatal("server still answering after Stop")
	}
	if log := srv.Log(); !strings.Contains(log, "fake server up") {
		t.Fatalf("log %q lacks the startup line", log)
	}
}

func TestBootReportsStartFailure(t *testing.T) {
	if _, err := Boot("/nonexistent/server", t.TempDir(), "ghost"); err == nil {
		t.Fatal("booting a missing binary succeeded")
	}
}

func TestSeriesValue(t *testing.T) {
	const exposition = `# TYPE rk_job_items_total counter
rk_job_items_total 16
rk_explain_cache_total{outcome="hit"} 40
rk_explain_cache_total{outcome="miss"} 3
rk_replica_lag_entries 0
`
	for _, c := range []struct {
		series string
		want   float64
		ok     bool
	}{
		{`rk_job_items_total`, 16, true},
		{`rk_explain_cache_total{outcome="miss"}`, 3, true},
		{`rk_explain_cache_total`, 40, true}, // a bare name matches its first labeled child
		{`rk_replica_lag_entries`, 0, true},
		{`rk_explain_cache_total{outcome="bypass"}`, 0, false},
		{`rk_job_items`, 0, false}, // a prefix is not a series
	} {
		got, ok := SeriesValue(exposition, c.series)
		if ok != c.ok || got != c.want {
			t.Errorf("SeriesValue(%s) = %v, %v; want %v, %v", c.series, got, ok, c.want, c.ok)
		}
	}
}

func TestRepeatedFamilies(t *testing.T) {
	const exposition = `# HELP rk_a_total a
# TYPE rk_a_total counter
rk_a_total 1
# HELP rk_b b
# TYPE rk_b gauge
rk_b 2
# TYPE rk_a_total counter
rk_a_total 3
# TYPE rk_a_total counter
# TYPE rk_b gauge
`
	if got := RepeatedFamilies(exposition); strings.Join(got, ",") != "rk_a_total,rk_b" {
		t.Fatalf("RepeatedFamilies = %q, want [rk_a_total rk_b]", got)
	}
	if got := RepeatedFamilies("# TYPE rk_a_total counter\nrk_a_total 1\n# TYPE rk_b gauge\n"); got != nil {
		t.Fatalf("RepeatedFamilies of a clean scrape = %q, want none", got)
	}
}

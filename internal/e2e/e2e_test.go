package e2e

import "testing"

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
		{`rk_explain_cache_total{outcome="coalesced"}`, 0, false},
		{`rk_job_items`, 0, false}, // a prefix is not a series
	} {
		got, ok := SeriesValue(exposition, c.series)
		if ok != c.ok || got != c.want {
			t.Errorf("SeriesValue(%s) = %v, %v; want %v, %v", c.series, got, ok, c.want, c.ok)
		}
	}
}

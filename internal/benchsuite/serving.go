package benchsuite

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/xai-db/relativekeys/internal/service"
)

// Serving-path cases: the request plane in front of the solver (DESIGN.md
// §15). explain_hit pins the cache fast path — decode, cache key, LRU
// hit, render — which is what a duplicate-heavy production workload mostly
// runs; explain_nocache pins the full uncached path through the same handler,
// the denominator of the cache's speedup. Both are under the CI timing gate
// (see gatedCase).
func servingCases() []Case {
	return []Case{
		{Name: "service/explain_hit", Fn: benchExplainServed(false)},
		{Name: "service/explain_nocache", Fn: benchExplainServed(true)},
	}
}

func benchExplainServed(noCache bool) func(b *testing.B) {
	return func(b *testing.B) {
		_, inference, schema := loanContext(b)
		srv, err := service.NewServer(service.Config{Schema: schema, Alpha: 1.0})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := srv.Warm(inference); err != nil {
			b.Fatal(err)
		}
		handler := srv.Handler()
		li := inference[0]
		values := make(map[string]string, schema.NumFeatures())
		for a, attr := range schema.Attrs {
			values[attr.Name] = attr.Values[li.X[a]]
		}
		body, err := json.Marshal(service.ExplainRequest{
			Values:     values,
			Prediction: schema.Labels[li.Y],
			NoCache:    noCache,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			req := httptest.NewRequest(http.MethodPost, "/explain", bytes.NewReader(body))
			rec := httptest.NewRecorder()
			handler.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				b.Fatalf("explain: %d %s", rec.Code, rec.Body.String())
			}
		}
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"sort"
	"sync"

	"github.com/xai-db/relativekeys/internal/core"
	"github.com/xai-db/relativekeys/internal/feature"
	"github.com/xai-db/relativekeys/internal/service"
)

// checker verifies the answers a run timed. Every mismatch counts as one
// failed operation and fails the run.
type checker struct {
	seed   int64
	schema *feature.Schema
	oracle *core.Context   // exactly sized context over the snapshot rows
	hot    map[string]bool // hot-set instances; the oracle re-derives all of them

	want map[string]expected // oracle answers by instance, kept across passes

	attempted, failed int64
	notes             []string // the first failures, for stderr
}

// expected is the oracle's answer for one instance.
type expected struct {
	noKey bool
	err   error
	resp  service.ExplainResponse
}

func newChecker(seed int64, schema *feature.Schema, oracle *core.Context, hot []feature.Labeled) *checker {
	c := &checker{seed: seed, schema: schema, oracle: oracle, hot: map[string]bool{}, want: map[string]expected{}}
	for _, li := range hot {
		c.hot[instanceKey(li.X)] = true
	}
	return c
}

func (c *checker) fail(format string, args ...any) {
	c.failed++
	if len(c.notes) < 10 {
		c.notes = append(c.notes, fmt.Sprintf(format, args...))
	}
}

// oracleChecks reports whether the oracle re-derives li's answer: the hot
// set, and a seeded 1-in-oracleEvery sample of everything else.
func (c *checker) oracleChecks(li feature.Labeled) bool {
	return c.hot[instanceKey(li.X)] || sampled(c.seed, li.X)
}

// derive computes the oracle answers still missing for items, on clients
// goroutines.
func (c *checker) derive(items []feature.Labeled) {
	var todo []feature.Labeled
	for _, li := range items {
		if _, ok := c.want[instanceKey(li.X)]; !ok {
			todo = append(todo, li)
		}
	}
	out := make([]expected, len(todo))
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(todo); i += clients {
				out[i] = c.solve(todo[i])
			}
		}()
	}
	wg.Wait()
	for i, li := range todo {
		c.want[instanceKey(li.X)] = out[i]
	}
}

// solve re-derives one answer: eager core.SRK over the snapshot rows, with
// the rule, precision and coverage computed on the same context.
func (c *checker) solve(li feature.Labeled) expected {
	key, err := core.SRK(c.oracle, li.X, li.Y, 1.0)
	if errors.Is(err, core.ErrNoKey) {
		return expected{noKey: true}
	}
	if err != nil {
		return expected{err: err}
	}
	resp := service.ExplainResponse{
		Rule:      key.RenderRule(c.schema, li.X, li.Y),
		Precision: core.Precision(c.oracle, li.X, li.Y, key),
		Coverage:  core.Coverage(c.oracle, li.X, li.Y, key),
		Context:   c.oracle.Len(),
	}
	for _, a := range key {
		resp.Features = append(resp.Features, c.schema.Attrs[a].Name)
	}
	return expected{resp: resp}
}

// matches compares a served answer (noKey for a 409) with the oracle's on
// features, rule, precision, coverage and context size.
func (e expected) matches(noKey bool, got *service.ExplainResponse) bool {
	if e.err != nil {
		return false
	}
	if e.noKey || noKey {
		return e.noKey == noKey
	}
	return got != nil && !got.Degraded &&
		slices.Equal(got.Features, e.resp.Features) && got.Rule == e.resp.Rule &&
		got.Precision == e.resp.Precision && got.Coverage == e.resp.Coverage &&
		got.Context == e.resp.Context
}

// explains checks explain answers from a pass with no observes: every status
// is 200 or 409; every answer for one instance is byte-identical to the
// first, so each cache hit equals the first miss; a cold pass only misses;
// the hot set and a seeded sample match the oracle.
func (c *checker) explains(samples []sample, coldOnly bool) {
	first := make(map[string]reply, len(samples))
	var derive []feature.Labeled
	for _, s := range samples {
		c.attempted++
		if !s.rep.answered() {
			c.fail("explain: status %d, err %v: %.200s", s.rep.status, s.rep.err, s.rep.body)
			continue
		}
		if coldOnly && s.rep.source != "miss" {
			c.fail("cold explain answered as %q, want miss", s.rep.source)
		}
		k := instanceKey(s.q.li.X)
		f, seen := first[k]
		if !seen {
			first[k] = s.rep
			if c.oracleChecks(s.q.li) {
				derive = append(derive, s.q.li)
			}
			continue
		}
		if f.status != s.rep.status || !bytes.Equal(f.body, s.rep.body) {
			c.fail("explain answer (%s) differs from the first answer for its instance", s.rep.source)
		}
	}
	c.derive(derive)
	for _, li := range derive {
		rep := first[instanceKey(li.X)]
		var got service.ExplainResponse
		if rep.status == http.StatusOK {
			if err := json.Unmarshal(rep.body, &got); err != nil {
				c.fail("explain answer does not decode: %v", err)
				continue
			}
		}
		if want := c.want[instanceKey(li.X)]; !want.matches(rep.status == http.StatusConflict, &got) {
			c.fail("explain answer %.300s does not match the oracle's %+v", rep.body, want)
		}
	}
}

// mixed checks an open-loop pass: each acknowledged observe raised the
// context by exactly one row (the acknowledged sizes are base+1..base+n, each
// once), the final seq is the snapshot seq plus the acknowledged observes,
// and every explain answered from a context size in that range.
func (c *checker) mixed(explains, observes []sample, base int, finalSeq uint64) {
	var sizes []int
	for _, s := range observes {
		c.attempted++
		var ack struct {
			ContextSize int `json:"context_size"`
		}
		if s.rep.err != nil || s.rep.status != http.StatusOK || json.Unmarshal(s.rep.body, &ack) != nil {
			c.fail("observe: status %d, err %v: %.200s", s.rep.status, s.rep.err, s.rep.body)
			continue
		}
		sizes = append(sizes, ack.ContextSize)
	}
	sort.Ints(sizes)
	for i, n := range sizes {
		if n != base+1+i {
			c.fail("observe acks: context size %d where %d was due", n, base+1+i)
			break
		}
	}
	if want := uint64(base + len(sizes)); finalSeq != want {
		c.fail("final seq %d, want the snapshot's %d plus %d acknowledged observes", finalSeq, base, len(sizes))
	}
	for _, s := range explains {
		c.attempted++
		if !s.rep.answered() {
			c.fail("explain: status %d, err %v: %.200s", s.rep.status, s.rep.err, s.rep.body)
			continue
		}
		if s.rep.status != http.StatusOK {
			continue
		}
		var got service.ExplainResponse
		if err := json.Unmarshal(s.rep.body, &got); err != nil || got.Context < base || got.Context > base+len(sizes) {
			c.fail("explain answer %.200s outside context sizes %d..%d", s.rep.body, base, base+len(sizes))
		}
	}
}

package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"time"

	"github.com/xai-db/relativekeys/internal/dataset"
	"github.com/xai-db/relativekeys/internal/feature"
	"github.com/xai-db/relativekeys/internal/model"
)

// Every input derives from the --seed argument: the snapshot rows, their
// labels, the instance streams and the open-loop schedule. The server is handed
// only the generated snapshot and the requests.

const (
	contextRows = 300000 // rows in the shared context every workload boots on
	oracleEvery = 50     // 1 in oracleEvery instances is re-derived by the oracle
)

// inputs is one seed's worth of generated data.
type inputs struct {
	schema   *feature.Schema
	rows     []feature.Labeled // the context, in arrival order
	hot      []feature.Labeled // the hot set
	distinct []feature.Labeled // pairwise distinct, none in the hot set
	observes []feature.Labeled // rows the mixed workload observes
}

// subSeed derives the seed of one named input stream.
func subSeed(seed int64, stream string) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", seed, stream)
	if s := int64(h.Sum64() >> 1); s != 0 {
		return s
	}
	return 1
}

// generate builds the inputs for seed: a hot set of hotN instances, distinctN
// more distinct instances and observeN observed rows. Rows are drawn
// from the adult generator and labelled by the forest cceserver -warm trains
// on the default adult split.
func generate(seed int64, hotN, distinctN, observeN int) (*inputs, error) {
	base, err := dataset.Load("adult", dataset.Options{})
	if err != nil {
		return nil, err
	}
	forest, err := model.TrainForest(base.Schema, base.Train(), model.ForestConfig{Seed: 1})
	if err != nil {
		return nil, err
	}
	in := &inputs{schema: base.Schema}
	if in.rows, err = labelled(forest, seed, "context", contextRows); err != nil {
		return nil, err
	}
	// About one draw in ten repeats an earlier one at these sizes; half again
	// as many draws leaves room for that.
	want := hotN + distinctN
	reqs, err := labelled(forest, seed, "requests", want+want/2)
	if err != nil {
		return nil, err
	}
	uniq := dedupe(reqs)
	if len(uniq) < want {
		return nil, fmt.Errorf("only %d distinct request instances, need %d", len(uniq), want)
	}
	in.hot, in.distinct = uniq[:hotN], uniq[hotN:want]
	if observeN > 0 {
		if in.observes, err = labelled(forest, seed, "observes", observeN); err != nil {
			return nil, err
		}
	}
	return in, nil
}

// labelled draws n adult rows from the named stream and labels them with m.
func labelled(m model.Model, seed int64, stream string, n int) ([]feature.Labeled, error) {
	ds, err := dataset.Load("adult", dataset.Options{Seed: subSeed(seed, stream), Size: n})
	if err != nil {
		return nil, err
	}
	xs := make([]feature.Instance, len(ds.Instances))
	for i, li := range ds.Instances {
		xs[i] = li.X
	}
	return model.Labels(m, xs), nil
}

// instanceKey identifies an instance by its feature values.
func instanceKey(x feature.Instance) string {
	b := make([]byte, 0, 4*len(x))
	for _, v := range x {
		b = append(b, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
	}
	return string(b)
}

// dedupe keeps the first occurrence of every instance, in order.
func dedupe(items []feature.Labeled) []feature.Labeled {
	seen := make(map[string]bool, len(items))
	out := make([]feature.Labeled, 0, len(items))
	for _, li := range items {
		k := instanceKey(li.X)
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, li)
	}
	return out
}

// sampled reports whether the oracle re-derives this instance: a seeded
// 1-in-oracleEvery choice that depends only on the instance, so every run
// with the seed checks the same instances.
func sampled(seed int64, x feature.Instance) bool {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", seed, instanceKey(x))
	return h.Sum64()%oracleEvery == 0
}

// req is one request instance with its pre-rendered body, so the timed path
// measures the server rather than the generator's JSON encoder.
type req struct {
	li   feature.Labeled
	body []byte
}

// renderer turns instances into request bodies using the value strings of the
// server's GET /schema.
type renderer struct {
	schema *feature.Schema
}

type wireItem struct {
	Values     map[string]string `json:"values"`
	Prediction string            `json:"prediction"`
}

func (r renderer) item(li feature.Labeled) wireItem {
	values := make(map[string]string, len(r.schema.Attrs))
	for a, attr := range r.schema.Attrs {
		values[attr.Name] = attr.Values[li.X[a]]
	}
	return wireItem{Values: values, Prediction: r.schema.Labels[li.Y]}
}

// reqs renders one /explain or /observe body per instance.
func (r renderer) reqs(items []feature.Labeled) []req {
	out := make([]req, len(items))
	for i, li := range items {
		out[i] = req{li: li, body: mustJSON(r.item(li))}
	}
	return out
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // string maps and slices always marshal
	}
	return b
}

// op is one open-loop request.
type op struct {
	at      time.Duration // due offset from the start of the window
	observe bool          // /observe instead of /explain
	req
}

// mixedSchedule lays out the open-loop schedule: exactly observeRate·window
// observes and explainRate·window explains at seeded uniform offsets, sorted
// by due time. mixedHotFrac of the explains pick from the hot set, the rest
// take the next distinct instance.
func mixedSchedule(seed int64, hot, distinct, observes []req, window time.Duration) ([]op, error) {
	rng := rand.New(rand.NewSource(subSeed(seed, "schedule")))
	secs := window.Seconds()
	nObs, nExp := int(observeRate*secs), int(explainRate*secs)
	if nObs > len(observes) {
		return nil, fmt.Errorf("schedule needs %d observes, have %d", nObs, len(observes))
	}
	ops := make([]op, 0, nObs+nExp)
	for i := 0; i < nObs; i++ {
		ops = append(ops, op{at: time.Duration(rng.Int63n(int64(window))), observe: true, req: observes[i]})
	}
	next := 0
	for i := 0; i < nExp; i++ {
		o := op{at: time.Duration(rng.Int63n(int64(window)))}
		if rng.Float64() < mixedHotFrac {
			o.req = hot[rng.Intn(len(hot))]
		} else {
			if next >= len(distinct) {
				return nil, fmt.Errorf("schedule used all %d distinct instances", len(distinct))
			}
			o.req = distinct[next]
			next++
		}
		ops = append(ops, o)
	}
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].at < ops[j].at })
	return ops, nil
}

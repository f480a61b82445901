package relativekeys_test

import (
	"fmt"

	relativekeys "github.com/xai-db/relativekeys"
)

// exampleContext builds the paper's Fig. 2 context: seven loan applications
// with the predictions a client observed during serving.
func exampleContext() (*relativekeys.Schema, []relativekeys.Labeled) {
	schema, err := relativekeys.NewSchema([]relativekeys.Attribute{
		{Name: "Gender", Values: []string{"Male", "Female"}},
		{Name: "Income", Values: []string{"1-2K", "3-4K", "5-6K"}},
		{Name: "Credit", Values: []string{"poor", "good"}},
		{Name: "Dependent", Values: []string{"0", "1", "2"}},
	}, []string{"Denied", "Approved"})
	if err != nil {
		panic(err)
	}
	return schema, []relativekeys.Labeled{
		{X: relativekeys.Instance{0, 1, 0, 1}, Y: 0},
		{X: relativekeys.Instance{0, 2, 0, 1}, Y: 1},
		{X: relativekeys.Instance{1, 1, 0, 2}, Y: 0},
		{X: relativekeys.Instance{0, 1, 0, 1}, Y: 0},
		{X: relativekeys.Instance{0, 0, 0, 1}, Y: 0},
		{X: relativekeys.Instance{0, 1, 1, 0}, Y: 1},
		{X: relativekeys.Instance{0, 1, 1, 1}, Y: 1},
	}
}

// The batch mode computes a relative key for an observed prediction — the
// paper's Example 3.
func ExampleBatch_Explain() {
	schema, context := exampleContext()
	cce, err := relativekeys.NewBatch(schema, context, 1.0)
	if err != nil {
		panic(err)
	}
	key, err := cce.Explain(context[0].X, context[0].Y)
	if err != nil {
		panic(err)
	}
	fmt.Println(key.RenderRule(schema, context[0].X, context[0].Y))
	// Output: IF Income=3-4K ∧ Credit=poor THEN Denied
}

// Relaxing the conformity bound α trades conformity for succinctness — the
// paper's Example 4.
func ExampleSRK() {
	schema, context := exampleContext()
	ctx, err := relativekeys.NewContext(schema, context)
	if err != nil {
		panic(err)
	}
	key, err := relativekeys.SRK(ctx, context[0].X, context[0].Y, 6.0/7.0)
	if err != nil {
		panic(err)
	}
	fmt.Printf("%s with precision %.3f\n",
		key.Render(schema),
		relativekeys.Precision(ctx, context[0].X, context[0].Y, key))
	// Output: {Credit} with precision 0.857
}

// Online monitoring keeps a coherent key as inference instances stream in —
// the paper's Example 7. The monitor keeps only the rows its key must still
// exclude, not the stream, so the check against the full stream runs on a
// context the caller indexes alongside.
func ExampleOnline() {
	schema, context := exampleContext()
	x0, y0 := context[0].X, context[0].Y
	monitor, err := relativekeys.NewOnline(schema, x0, y0, 1.0, 42)
	if err != nil {
		panic(err)
	}
	seen, err := relativekeys.NewContext(schema, nil)
	if err != nil {
		panic(err)
	}
	for _, li := range context {
		if _, err := monitor.Observe(li); err != nil {
			panic(err)
		}
		if err := seen.Add(li); err != nil {
			panic(err)
		}
	}
	key := monitor.Key()
	fmt.Println("conformant:", relativekeys.IsAlphaKey(seen, x0, y0, key, 1.0))
	// Output: conformant: true
}

// Context Shapley values rank features by their contribution to making the
// explanation conformant — the §8 extension, still with zero model access.
func ExampleContextShapley() {
	schema, context := exampleContext()
	ctx, err := relativekeys.NewContext(schema, context)
	if err != nil {
		panic(err)
	}
	phi, err := relativekeys.ContextShapley(ctx, context[0].X, context[0].Y, 500, 1)
	if err != nil {
		panic(err)
	}
	best := 0
	for i := range phi {
		if phi[i] > phi[best] {
			best = i
		}
	}
	fmt.Println("most important feature:", schema.Attrs[best].Name)
	// Output: most important feature: Credit
}

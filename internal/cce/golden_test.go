package cce

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"github.com/xai-db/relativekeys/internal/core"
	"github.com/xai-db/relativekeys/internal/dataset"
	"github.com/xai-db/relativekeys/internal/feature"
)

// goldenStream is the seeded adult stream the trajectory test replays: the
// generator's rows in order, ground-truth labels standing in for predictions.
func goldenStream(t testing.TB, size int) ([]feature.Labeled, *feature.Schema) {
	t.Helper()
	ds, err := dataset.Load("adult", dataset.Options{Seed: 11, Size: size})
	if err != nil {
		t.Fatal(err)
	}
	return ds.Instances, ds.Schema
}

// keyTrajectory writes one line per arrival at which the key changed
// ("arrival: key"); OSRK keys only grow, so the change points determine the
// key after every arrival.
func keyTrajectory(buf *bytes.Buffer, stream []feature.Labeled, observe func(feature.Labeled) (core.Key, error)) error {
	var prev core.Key
	for i, li := range stream {
		key, err := observe(li)
		if err != nil {
			return fmt.Errorf("arrival %d: %w", i, err)
		}
		if i == 0 || !key.Equal(prev) {
			fmt.Fprintf(buf, "%d: %v\n", i, []int(key))
		}
		prev = key
	}
	return nil
}

// TestOnlineGoldenTrajectory pins the online monitors' observable behaviour
// on a 20k-row adult stream against testdata/online_trajectory.golden: the
// drift panel's full History (run-length encoded, shortest exact float form)
// and every member's final key; a standalone OSRK's key after every arrival
// at α ∈ {1, 0.9} for three targets; and the fixed-probability ablation's
// key trajectory. Any change to how OSRK stores its state must leave this
// file byte-identical; regenerate with UPDATE_GOLDEN=1 only for an intended
// behaviour change.
func TestOnlineGoldenTrajectory(t *testing.T) {
	stream, schema := goldenStream(t, 20000)
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "adult stream: %d rows, dataset seed 11\n", len(stream))

	d, err := NewDriftMonitor(schema, 1.0, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, li := range stream {
		if err := d.Observe(li); err != nil {
			t.Fatalf("panel arrival %d: %v", i, err)
		}
	}
	hist := d.History()
	fmt.Fprintf(&buf, "panel 10 seed 1 alpha 1: history, %d points (value xrun)\n", len(hist))
	for i := 0; i < len(hist); {
		j := i
		for j < len(hist) && hist[j] == hist[i] { //rkvet:ignore floateq run-length encoding must merge only bit-identical points
			j++
		}
		fmt.Fprintf(&buf, "%s x%d\n", strconv.FormatFloat(hist[i], 'g', -1, 64), j-i)
		i = j
	}
	for i, m := range d.monitors {
		fmt.Fprintf(&buf, "panel member %d final key: %v conflicts %d\n", i, []int(m.Key()), m.Conflicts())
	}

	for _, target := range []int{0, 1, 2} {
		x0, y0 := stream[target].X, stream[target].Y
		for _, alpha := range []float64{1, 0.9} {
			o, err := core.NewOSRK(schema, x0, y0, alpha, int64(target+1))
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&buf, "osrk target %d alpha %v seed %d: key changes\n", target, alpha, target+1)
			if err := keyTrajectory(&buf, stream, o.Observe); err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&buf, "osrk target %d alpha %v conflicts %d\n", target, alpha, o.Conflicts())
		}
		f, err := core.NewOSRKFixedProb(schema, x0, y0, 1, int64(target+1))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&buf, "fixed-prob target %d alpha 1 seed %d: key changes\n", target, target+1)
		if err := keyTrajectory(&buf, stream, f.Observe); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&buf, "fixed-prob target %d final key: %v\n", target, []int(f.Key()))
	}

	golden := filepath.Join("testdata", "online_trajectory.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatalf("updating golden file: %v", err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden file: %v (regenerate with UPDATE_GOLDEN=1)", err)
	}
	if got := buf.Bytes(); !bytes.Equal(got, want) {
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("trajectory drifted from %s at line %d:\n got: %s\nwant: %s", golden, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("trajectory drifted from %s: %d lines, want %d", golden, len(gl), len(wl))
	}
}

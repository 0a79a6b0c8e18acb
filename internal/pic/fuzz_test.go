package pic

import (
	"bytes"
	"encoding/gob"
	"errors"
	"testing"

	"snowcat/internal/cfg"
	"snowcat/internal/ctgraph"
	"snowcat/internal/kernel"
	"snowcat/internal/ski"
	"snowcat/internal/syz"
)

// FuzzDecodeModel feeds arbitrary bytes to Decode: each input either
// decodes to a model that predicts a small CT graph, one probability per
// vertex, or fails with an ErrBadModel error — never a panic.
func FuzzDecodeModel(f *testing.F) {
	k := kernel.Generate(kernel.SmallConfig(3))
	gen := syz.NewGenerator(k, 4)
	a, b := gen.Generate(), gen.Generate()
	pa, err := syz.Run(k, a)
	if err != nil {
		f.Fatal(err)
	}
	pb, err := syz.Run(k, b)
	if err != nil {
		f.Fatal(err)
	}
	sched := ski.NewSampler(pa, pb, 5).Next()
	g := ctgraph.NewBuilder(k, cfg.Build(k)).Build(ski.CTI{ID: 1, A: a, B: b}, pa, pb, sched)

	m := New(Config{Dim: 4, Layers: 1, Seed: 6})
	data, err := m.Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	for _, cut := range []int{1, len(data) / 4, len(data) / 2, len(data) - 1} {
		f.Add(data[:cut])
	}
	m.EnsureDFHead()
	withDF, err := m.Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(withDF)
	// A well-formed gob that carries only the threshold: every layer
	// decodes as nil.
	type thresholdOnly struct{ Threshold float64 }
	var partial bytes.Buffer
	if err := gob.NewEncoder(&partial).Encode(thresholdOnly{Threshold: 0.5}); err != nil {
		f.Fatal(err)
	}
	f.Add(partial.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(data)
		if err != nil {
			if !errors.Is(err, ErrBadModel) {
				t.Fatalf("rejection %v does not wrap ErrBadModel", err)
			}
			return
		}
		if got := m.Predict(g, NewTokenCache(k, m.Vocab)); len(got) != len(g.Vertices) {
			t.Fatalf("predicted %d probabilities for %d vertices", len(got), len(g.Vertices))
		}
	})
}

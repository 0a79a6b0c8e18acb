package dataset

import (
	"errors"
	"sort"
	"testing"

	"snowcat/internal/ctgraph"
	"snowcat/internal/kernel"
	"snowcat/internal/pic"
)

// badDatasets returns an encoded good dataset and, by name, encodings of
// copies of it broken in each way Decode must reject.
func badDatasets(tb testing.TB) ([]byte, map[string][]byte) {
	tb.Helper()
	k := kernel.Generate(kernel.SmallConfig(61))
	ds, err := NewCollector(k, 62).Collect(Config{Seed: 63, NumCTIs: 1, InterleavingsPerCTI: 2})
	if err != nil {
		tb.Fatal(err)
	}
	good, err := ds.Encode()
	if err != nil {
		tb.Fatal(err)
	}
	breakers := map[string]func(*pic.Example){
		"nil graph":             func(ex *pic.Example) { ex.G = nil },
		"short labels":          func(ex *pic.Example) { ex.Y = ex.Y[:len(ex.Y)-1] },
		"extra labels":          func(ex *pic.Example) { ex.Y = append(ex.Y, true) },
		"flow label count":      func(ex *pic.Example) { ex.YFlow = make([]bool, ex.G.EdgeCount(ctgraph.InterDF)+1) },
		"edge source past end":  func(ex *pic.Example) { ex.G.Edges[0].From = int32(len(ex.G.Vertices)) },
		"negative edge target":  func(ex *pic.Example) { ex.G.Edges[0].To = -1 },
		"unknown edge type":     func(ex *pic.Example) { ex.G.Edges[0].Type = ctgraph.NumEdgeTypes },
		"unknown vertex type":   func(ex *pic.Example) { ex.G.Vertices[0].Type = ctgraph.NumVertexTypes },
		"negative vertex block": func(ex *pic.Example) { ex.G.Vertices[0].Block = -1 },
	}
	bad := make(map[string][]byte, len(breakers))
	for name, breakIt := range breakers {
		d, err := Decode(good)
		if err != nil {
			tb.Fatal(err)
		}
		breakIt(d.Groups[0].Examples[1])
		if bad[name], err = d.Encode(); err != nil {
			tb.Fatal(err)
		}
	}
	return good, bad
}

// TestDecodeRejectsBadDatasets checks that each broken dataset fails to
// load with ErrBadDataset, where it used to load and fail later.
func TestDecodeRejectsBadDatasets(t *testing.T) {
	good, bad := badDatasets(t)
	if _, err := Decode(good); err != nil {
		t.Fatalf("good dataset rejected: %v", err)
	}
	for name, data := range bad {
		if _, err := Decode(data); !errors.Is(err, ErrBadDataset) {
			t.Errorf("%s: Decode returned %v, want ErrBadDataset", name, err)
		}
	}
	if _, err := Decode([]byte("junk")); !errors.Is(err, ErrBadDataset) {
		t.Errorf("garbage: Decode returned %v, want ErrBadDataset", err)
	}
}

// FuzzDecodeDataset feeds arbitrary bytes to Decode: each input either
// fails with an ErrBadDataset error or decodes to a dataset whose labels
// and edges can be indexed the way training indexes them — never a panic.
func FuzzDecodeDataset(f *testing.F) {
	good, bad := badDatasets(f)
	f.Add(good)
	for _, cut := range []int{1, len(good) / 2, len(good) - 1} {
		f.Add(good[:cut])
	}
	names := make([]string, 0, len(bad))
	for name := range bad {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f.Add(bad[name])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := Decode(data)
		if err != nil {
			if !errors.Is(err, ErrBadDataset) {
				t.Fatalf("rejection %v does not wrap ErrBadDataset", err)
			}
			return
		}
		for _, ex := range d.Flatten() {
			g := ex.G
			for i, v := range g.Vertices {
				_ = ex.Y[i]
				if g.VertexOf(v.Block) < 0 {
					t.Fatalf("vertex %d (block %d) missing from the rebound index", i, v.Block)
				}
			}
			for _, e := range g.Edges {
				_, _ = g.Vertices[e.From], g.Vertices[e.To]
			}
			if ex.YFlow != nil && len(ex.YFlow) != len(g.InterDFEdges()) {
				t.Fatalf("%d flow labels for %d inter-thread edges", len(ex.YFlow), len(g.InterDFEdges()))
			}
		}
		d.PositiveURBRate()
	})
}

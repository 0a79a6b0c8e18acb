package strategy

import (
	"reflect"
	"testing"

	"snowcat/internal/ctgraph"
)

// stateGraphs builds tiny graphs with distinct block sets.
func stateGraphs() []*ctgraph.Graph {
	var gs []*ctgraph.Graph
	for i := 0; i < 6; i++ {
		g := &ctgraph.Graph{Vertices: []ctgraph.Vertex{
			{Block: int32(i)}, {Block: int32(i + 1)}, {Block: int32(2 * i)},
		}}
		gs = append(gs, g)
	}
	return gs
}

func statePred(g *ctgraph.Graph, i int) Prediction {
	scores := make([]float64, len(g.Vertices))
	for j := range scores {
		scores[j] = float64((i+j)%7) / 7
	}
	return FromScores(scores, 0.3)
}

// TestStateRoundTrip pins that Save/Load preserves selection behaviour: a
// restored strategy must make exactly the decisions the original would.
func TestStateRoundTrip(t *testing.T) {
	gs := stateGraphs()
	for _, mk := range []func() Strategy{
		func() Strategy { return NewS1() },
		func() Strategy { return NewS2() },
		func() Strategy { return NewS3(2) },
	} {
		orig, restored := mk(), mk()
		// Feed half the stream, snapshot, restore into a fresh instance.
		for i, g := range gs[:3] {
			Select(orig, g, statePred(g, i))
		}
		st := orig.Save()
		if err := restored.Load(st); err != nil {
			t.Fatalf("%s: load: %v", orig.Name(), err)
		}
		// The rest of the stream must decide identically on both.
		for i, g := range gs[3:] {
			p := statePred(g, i+3)
			a, b := Select(orig, g, p), Select(restored, g, p)
			if a != b {
				t.Fatalf("%s: decision diverged after restore: %v vs %v", orig.Name(), a, b)
			}
		}
		// Snapshots of equal memories are deeply equal (sorted encoding).
		if !reflect.DeepEqual(orig.Save(), restored.Save()) {
			t.Fatalf("%s: snapshots of equal memories differ", orig.Name())
		}
	}
}

// TestStateRejectsMismatch pins that a snapshot cannot be loaded into a
// different strategy kind.
func TestStateRejectsMismatch(t *testing.T) {
	if err := NewS2().Load(NewS1().Save()); err == nil {
		t.Fatal("S2 accepted an S1 snapshot")
	}
	if err := NewS3(2).Load(State{Name: "S3(limit=2)", TrialBlocks: []int32{1}}); err == nil {
		t.Fatal("S3 accepted a snapshot with mismatched trial arrays")
	}
}

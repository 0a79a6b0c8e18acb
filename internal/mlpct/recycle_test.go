package mlpct

import (
	"reflect"
	"slices"
	"testing"

	"snowcat/internal/ctgraph"
	"snowcat/internal/pic"
	"snowcat/internal/predictor"
	"snowcat/internal/ski"
	"snowcat/internal/strategy"
)

// graphSnap is a deep copy of what a consumer can read from a graph.
type graphSnap struct {
	cti      ski.CTI
	sched    ski.Schedule
	vertices []ctgraph.Vertex
	edges    []ctgraph.Edge
	fracs    []float64
	base     *ctgraph.Base
	index    []int32
}

func snapOf(g *ctgraph.Graph) graphSnap {
	s := graphSnap{cti: g.CTI, sched: g.Sched, vertices: slices.Clone(g.Vertices),
		edges: slices.Clone(g.Edges), fracs: slices.Clone(g.HintFrac), base: g.BaseOf()}
	s.sched.Hints = slices.Clone(g.Sched.Hints)
	s.sched.IRQs = slices.Clone(g.Sched.IRQs)
	for _, v := range g.Vertices {
		s.index = append(s.index, g.VertexOf(v.Block))
	}
	return s
}

// watcher wraps a strategy, counting every graph it is shown and keeping
// a snapshot of every graph it accepts (Commit sees only accepted graphs,
// which the walk never recycles, so keeping them is allowed).
type watcher struct {
	strategy.Strategy
	shown map[*ctgraph.Graph]int // times each graph was shown
	first map[*ctgraph.Graph]int // plan that first showed each graph
	last  map[*ctgraph.Graph]int // plan that last showed each graph
	plan  int
	kept  []*ctgraph.Graph
	snaps []graphSnap
	seen  []int // shown[g] when g was accepted
}

func (w *watcher) Interesting(g *ctgraph.Graph, p strategy.Prediction) bool {
	if w.shown[g] == 0 {
		w.first[g] = w.plan
	}
	w.shown[g]++
	w.last[g] = w.plan
	return w.Strategy.Interesting(g, p)
}

func (w *watcher) Commit(g *ctgraph.Graph, p strategy.Prediction) {
	w.Strategy.Commit(g, p)
	w.kept = append(w.kept, g)
	w.snaps = append(w.snaps, snapOf(g))
	w.seen = append(w.seen, w.shown[g])
}

// TestAcceptedGraphsNeverRecycled pins PlanMLPCT's graph ownership: the
// graphs Accept rejected are recycled into later builds, in the same CTI
// and the next one, while the graphs it accepted are never handed to
// another build and never change afterwards.
func TestAcceptedGraphsNeverRecycled(t *testing.T) {
	f := newFixture(t, 31, Options{ExecBudget: 8, InferenceCap: 160, Batch: 8, Parallel: 2})
	m := pic.New(pic.Config{Dim: 8, Layers: 1, Seed: 32})
	pred := predictor.NewPIC(m, pic.NewTokenCache(f.k, m.Vocab), "")
	w := &watcher{Strategy: strategy.NewS2(), shown: map[*ctgraph.Graph]int{},
		first: map[*ctgraph.Graph]int{}, last: map[*ctgraph.Graph]int{}}
	var plans []*Plan
	for i := 0; i < 3; i++ {
		w.plan = i
		cti, pa, pb := f.cti(t, int64(i+1))
		plans = append(plans, f.exp.PlanMLPCT(cti, pa, pb, uint64(40+i), pred, w))
	}

	accepted := 0
	for _, p := range plans {
		accepted += len(p.Scheds)
	}
	if accepted != len(w.kept) || accepted < 2 {
		t.Fatalf("%d graphs kept for %d accepted schedules; the fixture must accept at least 2", len(w.kept), accepted)
	}
	for i, g := range w.kept {
		if n := w.shown[g] - w.seen[i]; n != 0 {
			t.Fatalf("accepted graph %d was shown to the strategy %d more times: it was recycled", i, n)
		}
		if !reflect.DeepEqual(snapOf(g), w.snaps[i]) {
			t.Fatalf("accepted graph %d changed after it was accepted", i)
		}
	}
	// Recycling happens at all, and the free list outlives a CTI: some
	// graph first built for one plan is rebuilt for a later one.
	reused, acrossCTIs := false, false
	for g, n := range w.shown {
		reused = reused || n > 1
		acrossCTIs = acrossCTIs || w.last[g] > w.first[g]
	}
	if !reused || !acrossCTIs {
		t.Fatalf("rejected graphs recycled: %v, across CTIs: %v", reused, acrossCTIs)
	}
}

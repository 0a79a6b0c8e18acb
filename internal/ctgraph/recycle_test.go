package ctgraph

import (
	"reflect"
	"sync"
	"testing"

	"snowcat/internal/cfg"
	"snowcat/internal/kernel"
	"snowcat/internal/ski"
	"snowcat/internal/syz"
)

// newIRQFix is newFix over a kernel with interrupt handlers, so IRQ
// schedules add vertices past the base prefix.
func newIRQFix(t *testing.T, seed uint64) *fix {
	t.Helper()
	c := kernel.SmallConfig(seed)
	c.NumIRQs = 2
	k := kernel.Generate(c)
	return &fix{k: k, b: NewBuilder(k, cfg.Build(k)), g: syz.NewGenerator(k, seed+99)}
}

// recycle rebuilds old for sched exactly as Release and a pooled
// WithSchedule do, without going through the pool.
func recycle(base *Base, old *Graph, sched ski.Schedule) *Graph {
	old.reset()
	return base.buildInto(old, sched)
}

// TestRecycledGraphMatchesFresh pins that a graph built into a released
// one is reflect.DeepEqual to a fresh build — nil-ness included: Edges is
// never nil, HintFrac is nil exactly when the schedule has no hints — and
// that nothing of the previous build leaks into it.
func TestRecycledGraphMatchesFresh(t *testing.T) {
	f := newIRQFix(t, 401)
	cti, pa, pb, sched := f.ct(t, 401)
	if len(sched.Hints) == 0 {
		t.Fatal("fixture schedule has no hints")
	}
	irq1 := ski.Schedule{Hints: sched.Hints, IRQs: []ski.IRQHint{{Thread: 0, Ref: pa.InstrTrace[0], IRQ: 0}}}
	irq2 := ski.Schedule{IRQs: []ski.IRQHint{
		{Thread: 0, Ref: pa.InstrTrace[0], IRQ: 0},
		{Thread: 1, Ref: pb.InstrTrace[0], IRQ: 1},
	}}
	full := f.b
	bare := f.b.WithoutEdges(URBFlow, SCBFlow, IntraDF, InterDF, Shortcut, Hint, IRQEdge)
	bases := map[*Builder]*Base{full: full.BuildBase(cti, pa, pb), bare: bare.BuildBase(cti, pa, pb)}
	if n := len(bases[bare].preEdges) + len(bases[bare].shortcut); n != 0 {
		t.Fatalf("bare base has %d edges", n)
	}
	nBase := bases[full].NumVertices()
	n1 := len(bases[full].WithSchedule(irq1).Vertices)
	n2 := len(bases[full].WithSchedule(irq2).Vertices)
	if !(nBase < n1 && n1 < n2) {
		t.Fatalf("IRQ schedules must grow the vertex set: base %d, one IRQ %d, two IRQs %d", nBase, n1, n2)
	}

	cases := []struct {
		name       string
		from, to   *Builder
		prev, next ski.Schedule
	}{
		{"hints to no hints", full, full, sched, ski.Schedule{}},
		{"no hints to hints", full, full, ski.Schedule{}, sched},
		{"into empty pre-edges", full, bare, sched, ski.Schedule{}},
		{"out of empty pre-edges", bare, full, ski.Schedule{}, sched},
		{"empty pre-edges, IRQ to none", bare, bare, irq2, ski.Schedule{}},
		{"hints to IRQ", full, full, sched, irq1},
		{"larger IRQ to smaller IRQ", full, full, irq2, irq1},
		{"IRQ to hints", full, full, irq2, sched},
		{"across builders, IRQ to IRQ", bare, full, irq1, irq2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			to := bases[c.to]
			old := bases[c.from].buildInto(nil, c.prev)
			buf := old.Edges[:cap(old.Edges)]
			got := recycle(to, old, c.next)
			if got != old {
				t.Fatal("the released graph was not reused")
			}
			fresh := to.buildInto(nil, c.next)
			if !reflect.DeepEqual(got, fresh) {
				t.Fatalf("recycled graph differs from a fresh build:\n got %s\nwant %s", got.Stats(), fresh.Stats())
			}
			graphsEqual(t, c.name, got, refBuild(c.to, cti, pa, pb, c.next))
			if got.Edges == nil {
				t.Fatal("Edges is nil")
			}
			if (got.HintFrac == nil) != (len(c.next.Hints) == 0) {
				t.Fatalf("HintFrac nil = %v with %d hints", got.HintFrac == nil, len(c.next.Hints))
			}
			if !got.DerivedFrom(to) {
				t.Fatal("recycled graph does not report its new base")
			}
			if cap(buf) >= len(got.Edges) && len(got.Edges) > 0 && &buf[0] != &got.Edges[0] {
				t.Fatal("edge buffer large enough for the new graph was not reused")
			}
		})
	}
}

// TestReleasedGraphPinsNothing checks that a released graph keeps only
// its buffers: the pool must not hold a Base, an index or a schedule.
func TestReleasedGraphPinsNothing(t *testing.T) {
	f := newFix(t, 403)
	cti, pa, pb, sched := f.ct(t, 403)
	g := f.b.BuildBase(cti, pa, pb).WithSchedule(sched)
	g.reset()
	want := Graph{Edges: g.Edges, HintFrac: g.HintFrac}
	if !reflect.DeepEqual(*g, want) || len(g.Edges) != 0 || len(g.HintFrac) != 0 {
		t.Fatalf("reset graph still holds state: %+v", *g)
	}
}

// TestConcurrentBuildAndRelease runs builds and releases of graphs from
// two bases on four goroutines while each keeps some graphs: under -race
// this catches a pooled graph handed to two builds at once, and the kept
// graphs must still match their reference after every other build.
func TestConcurrentBuildAndRelease(t *testing.T) {
	f := newIRQFix(t, 405)
	type job struct {
		base *Base
		sch  ski.Schedule
		want *Graph
	}
	var jobs []job
	for seed := uint64(405); seed < 407; seed++ {
		cti, pa, pb, _ := f.ct(t, seed)
		base := f.b.BuildBase(cti, pa, pb)
		scheds := schedVariants(f, pa, pb, seed)
		scheds = append(scheds, ski.Schedule{IRQs: []ski.IRQHint{{Thread: 1, Ref: pb.InstrTrace[0], IRQ: 1}}})
		for _, s := range scheds {
			jobs = append(jobs, job{base, s, refBuild(f.b, cti, pa, pb, s)})
		}
	}
	errs := make(chan string, 8)
	fail := func(msg string) {
		select {
		case errs <- msg:
		default:
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var kept []*Graph
			var wants []*Graph
			for round := 0; round < 20; round++ {
				for i, j := range jobs {
					g := j.base.WithSchedule(j.sch)
					if !sameGraph(g, j.want) || !g.DerivedFrom(j.base) {
						fail("concurrent build diverged from the reference")
					}
					if (i+w+round)%7 == 0 {
						kept, wants = append(kept, g), append(wants, j.want)
					} else {
						g.Release()
					}
				}
			}
			for i, g := range kept {
				if !sameGraph(g, wants[i]) {
					fail("a kept graph changed after later builds")
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
}

package snowboard

import (
	"testing"

	"snowcat/internal/cfg"
	"snowcat/internal/ctgraph"
	"snowcat/internal/explore"
	"snowcat/internal/kernel"
	"snowcat/internal/predictor"
	"snowcat/internal/sim"
	"snowcat/internal/ski"
	"snowcat/internal/strategy"
	"snowcat/internal/syz"
)

// members builds profiled CTI candidates from random STI pairs.
func members(t *testing.T, k *kernel.Kernel, seed uint64, n int) []Member {
	t.Helper()
	gen := syz.NewGenerator(k, seed)
	var out []Member
	for i := 0; i < n; i++ {
		a, b := gen.Generate(), gen.Generate()
		pa, err := syz.Run(k, a)
		if err != nil {
			t.Fatal(err)
		}
		pb, err := syz.Run(k, b)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, Member{
			CTI: ski.CTI{ID: int64(i), A: a, B: b}, ProfA: pa, ProfB: pb,
		})
	}
	return out
}

func TestClusterCTIs(t *testing.T) {
	k := kernel.Generate(kernel.SmallConfig(1))
	ms := members(t, k, 2, 25)
	clusters := ClusterCTIs(ms)
	if len(clusters) == 0 {
		t.Fatal("no INS-PAIR clusters; shared affinity globals should guarantee some")
	}
	for _, c := range clusters {
		if len(c.Members) == 0 {
			t.Fatal("empty cluster")
		}
		// Every member must actually realise the pair.
		for _, m := range c.Members {
			hasW, hasR := false, false
			for _, a := range m.ProfA.Accesses {
				if a.Write && a.Ref == c.Key.WriteRef && a.Addr == c.Key.Addr {
					hasW = true
				}
			}
			for _, a := range m.ProfB.Accesses {
				if !a.Write && a.Ref == c.Key.ReadRef && a.Addr == c.Key.Addr {
					hasR = true
				}
			}
			if !hasW || !hasR {
				t.Fatalf("cluster %v contains non-realising member", c.Key)
			}
		}
	}
}

func TestClusterDeterministicOrder(t *testing.T) {
	k := kernel.Generate(kernel.SmallConfig(3))
	ms := members(t, k, 4, 15)
	c1 := ClusterCTIs(ms)
	c2 := ClusterCTIs(ms)
	if len(c1) != len(c2) {
		t.Fatal("cluster counts differ")
	}
	for i := range c1 {
		if c1[i].Key != c2[i].Key || len(c1[i].Members) != len(c2[i].Members) {
			t.Fatal("cluster order not deterministic")
		}
	}
}

func TestClusterHint(t *testing.T) {
	c := &Cluster{Key: PairKey{
		WriteRef: sim.InstrRef{Block: 5, Idx: 1},
		ReadRef:  sim.InstrRef{Block: 9, Idx: 0},
		Addr:     3,
	}}
	h := c.Hint()
	if len(h.Hints) != 1 || h.Hints[0].Thread != 0 || h.Hints[0].Ref.Block != 5 {
		t.Fatalf("hint %+v", h)
	}
}

func TestRNDSampler(t *testing.T) {
	k := kernel.Generate(kernel.SmallConfig(5))
	ms := members(t, k, 6, 30)
	clusters := ClusterCTIs(ms)
	var big *Cluster
	for _, c := range clusters {
		if big == nil || len(c.Members) > len(big.Members) {
			big = c
		}
	}
	s := NewRND(0.5, 7)
	idx := s.Sample(big)
	if len(idx) < 1 || len(idx) > len(big.Members) {
		t.Fatalf("sampled %d of %d", len(idx), len(big.Members))
	}
	want := int(0.5*float64(len(big.Members)) + 0.5)
	if want >= 1 && len(idx) != want {
		t.Fatalf("sampled %d, want %d", len(idx), want)
	}
	seen := map[int]bool{}
	for _, i := range idx {
		if i < 0 || i >= len(big.Members) || seen[i] {
			t.Fatalf("bad index %d", i)
		}
		seen[i] = true
	}
	if s.Name() != "SB-RND(50%)" {
		t.Fatal(s.Name())
	}
	if got := s.Sample(&Cluster{}); got != nil {
		t.Fatal("empty cluster sample")
	}
}

func TestRNDMinimumOne(t *testing.T) {
	k := kernel.Generate(kernel.SmallConfig(7))
	ms := members(t, k, 8, 5)
	clusters := ClusterCTIs(ms)
	s := NewRND(0.01, 9)
	if got := s.Sample(clusters[0]); len(got) != 1 {
		t.Fatalf("tiny fraction should still sample one, got %d", len(got))
	}
}

func TestPICSamplerSelectsSubset(t *testing.T) {
	k := kernel.Generate(kernel.SmallConfig(9))
	ms := members(t, k, 10, 25)
	clusters := ClusterCTIs(ms)
	builder := ctgraph.NewBuilder(k, cfg.Build(k))

	s1 := NewPIC(builder, predictor.AllPos{}, strategy.NewS1())
	s2 := NewPIC(builder, predictor.AllPos{}, strategy.NewS2())
	for _, c := range clusters[:min(5, len(clusters))] {
		i1 := s1.Sample(c)
		i2 := s2.Sample(c)
		if len(i1) > len(c.Members) || len(i2) > len(c.Members) {
			t.Fatal("sampled more than the cluster")
		}
		// With AllPos, S2 saturates after the first distinct vertex set,
		// so it can never select more members than S1.
		if len(i2) > len(i1) {
			t.Fatalf("S2 (%d) selected more than S1 (%d)", len(i2), len(i1))
		}
	}
	if s1.Name() != "SB-PIC(S1)" || s2.Name() != "SB-PIC(S2)" {
		t.Fatalf("names %q %q", s1.Name(), s2.Name())
	}
}

func TestPICSamplerResetsPerCluster(t *testing.T) {
	k := kernel.Generate(kernel.SmallConfig(11))
	ms := members(t, k, 12, 20)
	clusters := ClusterCTIs(ms)
	if len(clusters) < 2 {
		t.Skip("need two clusters")
	}
	builder := ctgraph.NewBuilder(k, cfg.Build(k))
	s := NewPIC(builder, predictor.AllPos{}, strategy.NewS2())
	first := s.Sample(clusters[0])
	again := s.Sample(clusters[0])
	if len(first) != len(again) {
		t.Fatal("sampler state leaked across Sample calls")
	}
}

func TestExploreBuggyCluster(t *testing.T) {
	// Build the buggy cluster by hand from a planted bug's reader/writer
	// syscalls and verify Explore triggers it for some member.
	k := kernel.Generate(kernel.SmallConfig(13))
	bug := k.Bugs[0]
	gen := syz.NewGenerator(k, 14)
	var ms []Member
	for i := 0; i < 10; i++ {
		a := gen.GenerateFor(bug.WriterSyscall)
		b := gen.GenerateFor(bug.ReaderSyscall)
		pa, err := syz.Run(k, a)
		if err != nil {
			t.Fatal(err)
		}
		pb, err := syz.Run(k, b)
		if err != nil {
			t.Fatal(err)
		}
		ms = append(ms, Member{CTI: ski.CTI{ID: int64(i), A: a, B: b}, ProfA: pa, ProfB: pb})
	}
	clusters := ClusterCTIs(ms)
	// Find the cluster on the bug's first guard variable.
	var buggy *Cluster
	for _, c := range clusters {
		if c.Key.Addr == bug.GuardVars[2] {
			buggy = c
			break
		}
	}
	if buggy == nil {
		t.Fatal("no cluster on the guard variable")
	}
	found := false
	for i, m := range buggy.Members {
		led := explore.NewLedger(explore.PaperCosts())
		hit, execs, err := Explore(explore.DefaultExecutor(k), m, buggy, bug.ID, 120, uint64(i), nil, led, nil)
		if err != nil {
			t.Fatal(err)
		}
		if execs == 0 {
			t.Fatal("no executions")
		}
		// Each execution is charged as it runs: one clock addition per
		// execution, not one multiplication per member.
		clock := 0.0
		for j := 0; j < execs; j++ {
			clock += 2.8
		}
		if led.Execs() != execs || led.Seconds() != clock {
			t.Fatalf("member %d: ledger %d execs / %v s, returned %d execs (want %v s)",
				i, led.Execs(), led.Seconds(), execs, clock)
		}
		if hit {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("planted bug not triggerable from its own cluster")
	}
}

func TestRunTrials(t *testing.T) {
	k := kernel.Generate(kernel.SmallConfig(15))
	ms := members(t, k, 16, 20)
	clusters := ClusterCTIs(ms)
	var big *Cluster
	for _, c := range clusters {
		if big == nil || len(c.Members) > len(big.Members) {
			big = c
		}
	}
	if len(big.Members) < 3 {
		t.Skip("cluster too small")
	}
	triggering := make([]bool, len(big.Members))
	triggering[0] = true

	full := NewRND(1.0, 17)
	res := RunTrials(big, full, triggering, 50)
	if res.BugFindProb != 1 {
		t.Fatalf("full sampling prob %v, want 1", res.BugFindProb)
	}
	if res.SamplingRate < 0.99 {
		t.Fatalf("full sampling rate %v", res.SamplingRate)
	}

	small := NewRND(0.25, 18)
	res2 := RunTrials(big, small, triggering, 400)
	if res2.BugFindProb >= 1 || res2.BugFindProb <= 0 {
		t.Fatalf("partial sampling prob %v should be in (0,1)", res2.BugFindProb)
	}
	if res2.SamplingRate >= res.SamplingRate {
		t.Fatal("smaller fraction should sample less")
	}

	empty := RunTrials(&Cluster{}, full, nil, 10)
	if empty.BugFindProb != 0 {
		t.Fatal("empty cluster")
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// constFlow scores every InterDF edge with a fixed probability.
type constFlow struct{ p float64 }

func (c constFlow) ScoreFlows(g *ctgraph.Graph) []float64 {
	out := make([]float64, len(g.InterDFEdges()))
	for i := range out {
		out[i] = c.p
	}
	return out
}

func TestDFSamplerThreshold(t *testing.T) {
	k := kernel.Generate(kernel.SmallConfig(17))
	ms := members(t, k, 18, 15)
	clusters := ClusterCTIs(ms)
	if len(clusters) == 0 {
		t.Skip("no clusters")
	}
	builder := ctgraph.NewBuilder(k, cfg.Build(k))

	take := NewDF(builder, constFlow{p: 0.9}, 0.5)
	if got := take.Sample(clusters[0]); len(got) != len(clusters[0].Members) {
		t.Fatalf("high-score sampler kept %d of %d", len(got), len(clusters[0].Members))
	}
	drop := NewDF(builder, constFlow{p: 0.1}, 0.5)
	if got := drop.Sample(clusters[0]); len(got) != 0 {
		t.Fatalf("low-score sampler kept %d", len(got))
	}
	if take.Name() != "SB-DF" {
		t.Fatal("name")
	}
	if NewDF(builder, constFlow{}, 0).Threshold != 0.5 {
		t.Fatal("default threshold")
	}
}

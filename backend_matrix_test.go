// Cross-backend equivalence matrix: the pinned campaign, razzer, and
// snowboard fixtures run over every executor the build registers — the
// in-process interp backend plus the loopback remote
// backend (this file imports internal/serve, whose init registers it) —
// and every history and result row must be reflect.DeepEqual to the
// interpreter's. This is the acceptance gate for the executor registry:
// the backend choice is invisible to every pipeline consumer.
package snowcat_test

import (
	"net/http/httptest"
	"reflect"
	"testing"

	"snowcat/internal/campaign"
	"snowcat/internal/explore"
	"snowcat/internal/faults"
	"snowcat/internal/kernel"
	"snowcat/internal/mlpct"
	"snowcat/internal/predictor"
	"snowcat/internal/razzer"
	"snowcat/internal/serve"
	"snowcat/internal/ski"
	"snowcat/internal/snowboard"
	"snowcat/internal/strategy"
	"snowcat/internal/syz"
)

// startExecShards boots n execution-capable loopback shards over k (a
// serve.Server per shard, no model — /v1/execute_cti needs only the
// kernel) and returns their base URLs.
func startExecShards(tb testing.TB, k *kernel.Kernel, n int) []string {
	tb.Helper()
	urls := make([]string, n)
	for i := range urls {
		s := serve.New(serve.NewRegistry(), serve.Config{Kernel: k, Sync: true})
		ts := httptest.NewServer(s.Handler())
		tb.Cleanup(ts.Close)
		tb.Cleanup(func() { s.Close() })
		urls[i] = ts.URL
	}
	return urls
}

// matrixBackends resolves every registered executor over k; the remote
// backend gets a fresh 2-shard loopback fleet so ring routing is
// exercised, not just HTTP transport.
func matrixBackends(tb testing.TB, k *kernel.Kernel) []explore.Executor {
	tb.Helper()
	names := explore.Executors()
	out := make([]explore.Executor, 0, len(names))
	seenRemote := false
	for _, name := range names {
		env := explore.Env{Kernel: k}
		if name == "remote" {
			env.URLs = startExecShards(tb, k, 2)
			seenRemote = true
		}
		ex, err := explore.NewExecutor(name, env)
		if err != nil {
			tb.Fatalf("executor %q: %v", name, err)
		}
		out = append(out, ex)
	}
	if !seenRemote {
		tb.Fatal("remote backend not registered; the serve import should have registered it")
	}
	return out
}

// matrixResilience builds a fresh fault-injection layer (per run — the
// quarantine and retry tallies are run-local state).
func matrixResilience(tb testing.TB) *explore.Resilience {
	tb.Helper()
	res, err := explore.NewResilience(faults.New(9, 0.3), faults.DefaultPolicy())
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

// TestCampaignHistoryAcrossBackends pins the acceptance criterion:
// campaign History is DeepEqual across interp and loopback remote at
// workers {1, 4}, with fault injection enabled, for both plain
// PCT and MLPCT.
func TestCampaignHistoryAcrossBackends(t *testing.T) {
	f := getParFixture()
	r := campaign.NewRunner(f.k)
	run := func(ex explore.Executor, workers int, guided bool) *campaign.History {
		cfg := campaign.Config{
			Name: "matrix", Seed: 31, NumCTIs: 16,
			Opts:       mlpct.Options{ExecBudget: 5, InferenceCap: 160, Batch: 32},
			Cost:       campaign.PaperCosts(),
			Exec:       ex,
			Parallel:   workers,
			Resilience: matrixResilience(t),
		}
		if guided {
			st, err := strategy.New("s1")
			if err != nil {
				t.Fatal(err)
			}
			cfg.Pred, cfg.Strat = predictor.NewPIC(f.m, f.tc, "PIC"), st
		}
		h, err := r.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	backends := matrixBackends(t, f.k)
	for _, guided := range []bool{false, true} {
		want := run(backends[0], 1, guided) // Executors() is sorted: interp first
		if want.TotalExecs == 0 {
			t.Fatal("baseline campaign executed nothing; fixture too small")
		}
		for _, ex := range backends {
			for _, workers := range []int{1, 4} {
				got := run(ex, workers, guided)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("guided=%v executor=%s workers=%d: History diverged\ngot  %+v\nwant %+v",
						guided, ex.Name(), workers, got, want)
				}
			}
		}
	}
}

// razzerMatrixFixture builds one target race and a candidate pool shared
// by every backend run.
func razzerMatrixFixture(t *testing.T, k *kernel.Kernel) (razzer.TargetRace, []*syz.STI) {
	t.Helper()
	if len(k.Bugs) == 0 {
		t.Fatal("fixture kernel has no planted bugs")
	}
	bug := k.Bugs[0]
	tr, err := razzer.RaceFromBug(k, bug)
	if err != nil {
		t.Fatal(err)
	}
	stis := razzer.BuildPool(k, []int32{bug.ReaderSyscall, bug.WriterSyscall}, 24, 4, 77)
	return tr, stis
}

// TestRazzerReproduceAcrossBackends runs the Table-4 reproduction row over
// every registered executor and pins DeepEqual results.
func TestRazzerReproduceAcrossBackends(t *testing.T) {
	f := getParFixture()
	tr, stis := razzerMatrixFixture(t, f.k)
	cfg := razzer.ReproConfig{SchedulesPerCTI: 40, Seed: 79, ExecSeconds: 2.8, Shuffles: 100, Parallel: 2}
	run := func(ex explore.Executor) razzer.ReproResult {
		finder, err := razzer.NewFinder(f.k, stis)
		if err != nil {
			t.Fatal(err)
		}
		finder.Exec = ex
		ctis := finder.FindCTIs(tr, razzer.Relax, nil, 78)
		if len(ctis) > 4 {
			ctis = ctis[:4]
		}
		if len(ctis) == 0 {
			t.Fatal("no candidate CTIs; fixture too small")
		}
		res, err := finder.Reproduce(tr, ctis, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	backends := matrixBackends(t, f.k)
	want := run(backends[0])
	for _, ex := range backends[1:] {
		if got := run(ex); !reflect.DeepEqual(got, want) {
			t.Fatalf("executor %s: reproduction row diverged\ngot  %+v\nwant %+v", ex.Name(), got, want)
		}
	}
}

// TestSnowboardExploreAcrossBackends runs cluster-member exploration over
// every registered executor and pins identical (hit, executions) rows.
func TestSnowboardExploreAcrossBackends(t *testing.T) {
	f := getParFixture()
	k := f.k
	if len(k.Bugs) == 0 {
		t.Fatal("fixture kernel has no planted bugs")
	}
	bug := k.Bugs[0]
	gen := syz.NewGenerator(k, 50)
	var ms []snowboard.Member
	for i := 0; i < 10; i++ {
		a, b := gen.GenerateFor(bug.WriterSyscall), gen.GenerateFor(bug.ReaderSyscall)
		pa, err := syz.Run(k, a)
		if err != nil {
			t.Fatal(err)
		}
		pb, err := syz.Run(k, b)
		if err != nil {
			t.Fatal(err)
		}
		ms = append(ms, snowboard.Member{CTI: ski.CTI{ID: int64(i), A: a, B: b}, ProfA: pa, ProfB: pb})
	}
	var cluster *snowboard.Cluster
	for _, c := range snowboard.ClusterCTIs(ms) {
		if len(c.Members) >= 2 {
			cluster = c
			break
		}
	}
	if cluster == nil {
		t.Fatal("no cluster with at least two members; pick another seed")
	}

	type row struct {
		hit   bool
		execs int
	}
	run := func(ex explore.Executor) []row {
		rows := make([]row, len(cluster.Members))
		for i, mem := range cluster.Members {
			hit, execs, err := snowboard.Explore(ex, mem, cluster, bug.ID, 10, 60+uint64(i), nil, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			rows[i] = row{hit: hit, execs: execs}
		}
		return rows
	}
	backends := matrixBackends(t, k)
	want := run(backends[0])
	for _, ex := range backends[1:] {
		if got := run(ex); !reflect.DeepEqual(got, want) {
			t.Fatalf("executor %s: exploration rows diverged\ngot  %+v\nwant %+v", ex.Name(), got, want)
		}
	}
}

// BenchmarkCampaignBackend compares end-to-end campaign throughput across
// the registered executors — interp vs remote over a loopback shard — so
// the remote backend's wire tax is tracked in BENCH_campaign.json.
func BenchmarkCampaignBackend(b *testing.B) {
	f := getParFixture()
	for _, name := range explore.Executors() {
		b.Run(name, func(b *testing.B) {
			env := explore.Env{Kernel: f.k}
			if name == "remote" {
				env.URLs = startExecShards(b, f.k, 1)
			}
			ex, err := explore.NewExecutor(name, env)
			if err != nil {
				b.Fatal(err)
			}
			r := campaign.NewRunner(f.k)
			cfg := campaign.Config{
				Name: "bench", Seed: 205, NumCTIs: 64,
				Opts: mlpct.Options{ExecBudget: 10, InferenceCap: 320, Batch: 32},
				Cost: campaign.PaperCosts(),
				Exec: ex,
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := r.Run(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

package snowboard

import (
	"testing"

	"snowcat/internal/explore"
	"snowcat/internal/faults"
	"snowcat/internal/kernel"
	"snowcat/internal/ski"
	"snowcat/internal/syz"
)

// buggyCluster rebuilds the planted-bug cluster the Explore tests use.
func buggyCluster(t *testing.T, seed uint64) (*kernel.Kernel, *Cluster, int32) {
	t.Helper()
	k := kernel.Generate(kernel.SmallConfig(13))
	bug := k.Bugs[0]
	gen := syz.NewGenerator(k, seed)
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
	for _, c := range ClusterCTIs(ms) {
		if c.Key.Addr == bug.GuardVars[2] {
			return k, c, bug.ID
		}
	}
	t.Fatal("no cluster on the guard variable")
	return nil, nil, 0
}

func mustResilience(t *testing.T, inj *faults.Injector, p faults.Policy) *explore.Resilience {
	t.Helper()
	r, err := explore.NewResilience(inj, p)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestExploreRChaosDeterministic pins the enabled contract: a fixed fault
// seed yields identical hit/exec results and ledger snapshots on repeated
// runs, and the counters report the injected faults.
func TestExploreRChaosDeterministic(t *testing.T) {
	k, c, bugID := buggyCluster(t, 14)
	type outcome struct {
		hits  []bool
		execs []int
		snap  explore.Snapshot
	}
	run := func() outcome {
		res := mustResilience(t, faults.New(33, 0.5), faults.DefaultPolicy())
		led := explore.NewLedger(explore.PaperCosts())
		var o outcome
		for i, m := range c.Members {
			hit, execs, err := Explore(explore.DefaultExecutor(k), m, c, bugID, 40, uint64(i), res, led, nil)
			if err != nil {
				t.Fatal(err)
			}
			o.hits = append(o.hits, hit)
			o.execs = append(o.execs, execs)
		}
		o.snap = led.Snapshot()
		return o
	}
	canon := run()
	if canon.snap.Retries+canon.snap.Skipped == 0 {
		t.Fatal("chaos exploration injected nothing")
	}
	again := run()
	if canon.snap != again.snap {
		t.Fatalf("ledger snapshots diverged: %+v vs %+v", again.snap, canon.snap)
	}
	for i := range canon.hits {
		if canon.hits[i] != again.hits[i] || canon.execs[i] != again.execs[i] {
			t.Fatalf("member %d diverged across identical chaos runs", i)
		}
	}
}

// TestExploreRQuarantineGivesUp forces every attempt to fail and checks the
// member is abandoned after Policy.QuarantineAfter skipped schedules,
// without an error.
func TestExploreRQuarantineGivesUp(t *testing.T) {
	k, c, bugID := buggyCluster(t, 14)
	p := faults.Policy{MaxRetries: 1, QuarantineAfter: 2, StepBudget: 1}
	res := mustResilience(t, nil, p)
	led := explore.NewLedger(explore.CostModel{})
	hit, execs, err := Explore(explore.DefaultExecutor(k), c.Members[0], c, bugID, 40, 3, res, led, nil)
	if err != nil || hit {
		t.Fatalf("gave-up exploration returned (%v, %v)", hit, err)
	}
	// 2 schedules × (1 attempt + 1 retry) before giving up.
	if execs != 4 || led.Skipped() != 2 || led.Quarantined() != 1 {
		t.Fatalf("execs=%d skipped=%d quarantined=%d, want 4/2/1",
			execs, led.Skipped(), led.Quarantined())
	}
}

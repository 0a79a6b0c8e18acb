// Fail-fast contract: with a nil *explore.Resilience, an execution error
// aborts every pipeline consumer with an error that keeps the executor's
// own error reachable through errors.Is, instead of degrading to a skipped
// candidate.
package snowcat_test

import (
	"errors"
	"sync/atomic"
	"testing"

	"snowcat/internal/campaign"
	"snowcat/internal/explore"
	"snowcat/internal/kernel"
	"snowcat/internal/mlpct"
	"snowcat/internal/razzer"
	"snowcat/internal/ski"
	"snowcat/internal/snowboard"
	"snowcat/internal/syz"
)

var errStubExec = errors.New("stub executor: injected failure")

// failNthExec runs the interpreter but fails its nth execution (1-based)
// with errStubExec. Both entry points count, so it observes whichever one
// a consumer calls.
type failNthExec struct {
	explore.Executor
	n     int64
	calls atomic.Int64
}

func (e *failNthExec) Execute(cti ski.CTI, sched ski.Schedule) (*ski.Result, error) {
	return e.ExecuteSteps(cti, sched, 0)
}

func (e *failNthExec) ExecuteSteps(cti ski.CTI, sched ski.Schedule, stepLimit int) (*ski.Result, error) {
	if e.calls.Add(1) == e.n {
		return nil, errStubExec
	}
	return e.Executor.ExecuteSteps(cti, sched, stepLimit)
}

func TestNilResilienceFailsFast(t *testing.T) {
	k := kernel.Generate(kernel.SmallConfig(201))
	gen := syz.NewGenerator(k, 50)
	bug := k.Bugs[0]
	profile := func(sti *syz.STI) *syz.Profile {
		p, err := syz.Run(k, sti)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	a, b := gen.GenerateFor(bug.WriterSyscall), gen.GenerateFor(bug.ReaderSyscall)
	cti := ski.CTI{ID: 0, A: a, B: b}
	pa, pb := profile(a), profile(b)

	cases := []struct {
		name    string
		n       int64 // which execution fails
		wrapped bool  // the error also wraps explore.ErrExec
		run     func(ex explore.Executor) error
	}{
		{"explore.ExecutePlan", 3, true, func(ex explore.Executor) error {
			sampler := ski.NewSampler(pa, pb, 7)
			scheds := make([]ski.Schedule, 5)
			for i := range scheds {
				scheds[i] = sampler.Next()
			}
			_, err := explore.ExecutePlan(ex, cti, scheds, 1, nil, nil, nil)
			return err
		}},
		{"mlpct.Explorer.Execute", 2, true, func(ex explore.Executor) error {
			exp := mlpct.NewExplorer(k, nil, mlpct.Options{ExecBudget: 4, Parallel: 1})
			exp.Exec = ex
			_, err := exp.ExplorePCT(cti, pa, pb, 9)
			return err
		}},
		{"campaign.Runner.Run", 5, false, func(ex explore.Executor) error {
			_, err := campaign.NewRunner(k).Run(campaign.Config{
				Name: "failfast", Seed: 11, NumCTIs: 4,
				Opts: mlpct.Options{ExecBudget: 3},
				Cost: campaign.PaperCosts(), Exec: ex, Parallel: 1,
			})
			return err
		}},
		{"razzer.Finder.Reproduce", 2, true, func(ex explore.Executor) error {
			tr, err := razzer.RaceFromBug(k, bug)
			if err != nil {
				return err
			}
			finder, err := razzer.NewFinder(k, razzer.BuildPool(k, []int32{bug.ReaderSyscall, bug.WriterSyscall}, 8, 4, 77))
			if err != nil {
				return err
			}
			ctis := finder.FindCTIs(tr, razzer.Relax, nil, 78)
			if len(ctis) == 0 {
				t.Fatal("no candidate CTIs; fixture too small")
			}
			finder.Exec = ex
			_, err = finder.Reproduce(tr, ctis, razzer.ReproConfig{SchedulesPerCTI: 10, Seed: 79, ExecSeconds: 2.8, Shuffles: 10, Parallel: 1})
			return err
		}},
		{"snowboard.Explore", 1, true, func(ex explore.Executor) error {
			m := snowboard.Member{CTI: cti, ProfA: pa, ProfB: pb}
			c := snowboard.ClusterCTIs([]snowboard.Member{m})[0]
			_, _, err := snowboard.Explore(ex, m, c, bug.ID, 4, 13, nil, nil, nil)
			return err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ex := &failNthExec{Executor: explore.DefaultExecutor(k), n: tc.n}
			err := tc.run(ex)
			if ex.calls.Load() < tc.n {
				t.Fatalf("only %d executions ran; the failing one (#%d) never did", ex.calls.Load(), tc.n)
			}
			if !errors.Is(err, errStubExec) {
				t.Fatalf("error %v does not wrap the executor's error", err)
			}
			if tc.wrapped && !errors.Is(err, explore.ErrExec) {
				t.Fatalf("error %v does not wrap explore.ErrExec", err)
			}
		})
	}
}

package ski

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"snowcat/internal/kernel"
	"snowcat/internal/parallel"
	"snowcat/internal/sim"
	"snowcat/internal/syz"
)

// ownershipWorkers is how many goroutines share the scratch pool in the
// ownership tests (run under -race by `make test`).
const ownershipWorkers = 8

// poolCorpus is a kernel with interrupt handlers and family bugs, several
// CTIs and a mix of hint-only and IRQ schedules
// for each; the last CTIs repeat a family bug's witness three times, so
// that BugsHit's length is not a power of two and append-built sizing
// would show.
type poolCorpus struct {
	k      *kernel.Kernel
	ctis   []CTI
	scheds [][]Schedule
}

func newPoolCorpus(t *testing.T) *poolCorpus {
	t.Helper()
	cfg := kernel.SmallConfig(61)
	cfg.NumIRQs = 3
	cfg.NumMissedWakeup = 1
	cfg.NumDoubleFree = 1
	k := kernel.Generate(cfg)
	c := &poolCorpus{k: k}
	gen := syz.NewGenerator(k, 62)
	for i := 0; i < 6; i++ {
		cti := CTI{ID: int64(i), A: gen.Generate(), B: gen.Generate()}
		pa, err := syz.Run(k, cti.A)
		if err != nil {
			t.Fatal(err)
		}
		pb, err := syz.Run(k, cti.B)
		if err != nil {
			t.Fatal(err)
		}
		s := NewSampler(pa, pb, uint64(70+i))
		scheds := []Schedule{{}}
		for j := 0; j < 4; j++ {
			scheds = append(scheds, s.NextD(2+j), s.NextWithIRQs(1+j%2, len(k.IRQs)))
		}
		c.ctis = append(c.ctis, cti)
		c.scheds = append(c.scheds, scheds)
	}
	for _, kind := range []kernel.BugKind{kernel.MissedWakeup, kernel.DoubleFree} {
		bug := findBug(t, k, kind)
		cti := witnessCTI(bug, bug.TriggerArg)
		for _, sti := range []*syz.STI{cti.A, cti.B} {
			sti.Calls = append(sti.Calls, sti.Calls[0], sti.Calls[0])
		}
		c.ctis = append(c.ctis, cti)
		c.scheds = append(c.scheds, []Schedule{witnessSchedule(k, bug), {}})
	}
	return c
}

// preemptEvery7 is a stateless hook, so hooked runs stay deterministic.
var preemptEvery7 = &ExecHooks{SchedulePoint: func(_ int32, _ sim.InstrRef, step int) HookAction {
	if step%7 == 0 {
		return HookPreempt
	}
	return HookContinue
}}

// run executes the i-th (CTI, schedule, entry point) combination of the
// corpus, cycling through every Execute* entry point.
func (c *poolCorpus) run(i int) (*Result, error) {
	ci := i % len(c.ctis)
	cti, sched := c.ctis[ci], c.scheds[ci][(i/len(c.ctis))%len(c.scheds[ci])]
	switch i % 3 {
	case 0:
		return Execute(c.k, cti, sched)
	case 1:
		return ExecuteHooked(c.k, cti, sched, 0, preemptEvery7)
	}
	return ExecuteSteps(c.k, cti, sched, 1<<16)
}

// freshExecute runs (cti, sched) on a machine and threads from the plain
// constructors and a new scratch, bypassing the pool: the reference a
// pooled execution must reproduce.
func freshExecute(k *kernel.Kernel, cti CTI, sched Schedule) (*Result, error) {
	m := sim.NewMachine(k)
	sc := &scratch{t: [2]sim.Thread{*sim.NewThread(m, 0, cti.A.Calls), *sim.NewThread(m, 1, cti.B.Calls)}}
	return runSchedule(k, cti, sched, nil, sc)
}

func cloneResult(r *Result) *Result {
	c := *r
	c.Covered = slices.Clone(r.Covered)
	c.BugsHit = slices.Clone(r.BugsHit)
	for i := range r.CoveredBy {
		c.CoveredBy[i] = slices.Clone(r.CoveredBy[i])
		c.Accesses[i] = slices.Clone(r.Accesses[i])
	}
	return &c
}

// onWorkers runs fn(w) for w in [0, ownershipWorkers) concurrently.
func onWorkers(t *testing.T, fn func(w int) error) {
	t.Helper()
	if err := parallel.ForEach(ownershipWorkers, ownershipWorkers, fn); err != nil {
		t.Fatal(err)
	}
}

// TestResultOwnedByCaller pins the ownership contract: a result kept
// while 50 more executions of other CTIs, schedules and executors reuse
// the pool still equals the deep copy taken when it was returned, and
// every slice in it is exactly sized.
func TestResultOwnedByCaller(t *testing.T) {
	c := newPoolCorpus(t)
	bugs := make([]int, ownershipWorkers)
	onWorkers(t, func(w int) error {
		kept, err := c.run(w)
		if err != nil {
			return err
		}
		want := cloneResult(kept)
		for _, s := range [][]bool{kept.Covered, kept.CoveredBy[0], kept.CoveredBy[1]} {
			if len(s) != cap(s) {
				return fmt.Errorf("worker %d: coverage len %d cap %d", w, len(s), cap(s))
			}
		}
		for _, s := range kept.Accesses {
			if len(s) != cap(s) {
				return fmt.Errorf("worker %d: access log len %d cap %d", w, len(s), cap(s))
			}
		}
		if len(kept.BugsHit) != cap(kept.BugsHit) {
			return fmt.Errorf("worker %d: BugsHit len %d cap %d", w, len(kept.BugsHit), cap(kept.BugsHit))
		}
		bugs[w] = len(kept.BugsHit)
		for i := 1; i <= 50; i++ {
			if _, err := c.run(w + 7*i); err != nil {
				return err
			}
		}
		if !reflect.DeepEqual(kept, want) {
			return fmt.Errorf("worker %d: kept result changed under later executions", w)
		}
		return nil
	})
	if slices.Max(bugs) < 3 {
		t.Fatalf("no kept result hit a bug 3 times (%v): BugsHit sizing untested", bugs)
	}
}

// TestResultFieldsDoNotAlias appends to the fields that share a backing
// array with a neighbour and checks the neighbour is untouched.
func TestResultFieldsDoNotAlias(t *testing.T) {
	c := newPoolCorpus(t)
	onWorkers(t, func(w int) error {
		r, err := c.run(w)
		if err != nil {
			return err
		}
		if len(r.Accesses[0]) == 0 || len(r.Accesses[1]) == 0 {
			return fmt.Errorf("worker %d: fixture run has an empty access log", w)
		}
		want := cloneResult(r)
		r.Accesses[0] = append(r.Accesses[0], syz.Access{Addr: -1, Step: -1})
		r.Covered = append(r.Covered, true)
		r.CoveredBy[0] = append(r.CoveredBy[0], true)
		if !reflect.DeepEqual(r.Accesses[1], want.Accesses[1]) {
			return fmt.Errorf("worker %d: append to Accesses[0] changed Accesses[1]", w)
		}
		if !reflect.DeepEqual(r.CoveredBy, [2][]bool{append(want.CoveredBy[0], true), want.CoveredBy[1]}) {
			return fmt.Errorf("worker %d: append to Covered changed CoveredBy", w)
		}
		return nil
	})
}

// TestFailedExecutionDoesNotTaintPool runs executions that fail mid-run —
// a bad syscall after good ones, step budgets exhausted at a fifth to four
// fifths of the run — and then a good one, which must equal the same
// execution on a fresh scratch.
func TestFailedExecutionDoesNotTaintPool(t *testing.T) {
	c := newPoolCorpus(t)
	onWorkers(t, func(w int) error {
		ci := w % len(c.ctis)
		cti := c.ctis[ci]
		sched := c.scheds[ci][1+w%(len(c.scheds[ci])-1)]
		bad := cti
		bad.B = &syz.STI{Calls: append(slices.Clone(cti.B.Calls), sim.Call{Syscall: 1 << 20})}
		want, err := freshExecute(c.k, cti, sched)
		if err != nil {
			return err
		}
		for round := 0; round < 4; round++ {
			limit := want.Steps * (round + 1) / 5
			if _, err := ExecuteHooked(c.k, bad, sched, 0, nil); !errors.Is(err, sim.ErrBadCall) {
				return fmt.Errorf("worker %d: bad call: err = %v", w, err)
			}
			if _, err := ExecuteSteps(c.k, cti, sched, limit); !errors.Is(err, sim.ErrStepLimit) {
				return fmt.Errorf("worker %d: step limit: err = %v", w, err)
			}
			got, err := Execute(c.k, cti, sched)
			if err != nil {
				return err
			}
			if !reflect.DeepEqual(got, want) {
				return fmt.Errorf("worker %d round %d: execution after failures diverged from a fresh one", w, round)
			}
		}
		return nil
	})
}

// TestEmptyAccessesNonNil pins that an execution with no memory access
// reports empty, non-nil access logs, even right after runs that filled
// the pooled logs: the remote backend's JSON and the backend DeepEqual
// matrix both see the difference between empty and nil.
func TestEmptyAccessesNonNil(t *testing.T) {
	c := newPoolCorpus(t)
	empty := CTI{ID: 99, A: &syz.STI{}, B: &syz.STI{}}
	onWorkers(t, func(w int) error {
		for i := 0; i < 10; i++ {
			if _, err := c.run(w + i); err != nil {
				return err
			}
			var r *Result
			var err error
			if i%2 == 0 {
				r, err = Execute(c.k, empty, Schedule{})
			} else {
				r, err = ExecuteHooked(c.k, empty, Schedule{}, 0, preemptEvery7)
			}
			if err != nil {
				return err
			}
			for th, log := range r.Accesses {
				if log == nil || len(log) != 0 {
					return fmt.Errorf("worker %d: thread %d access log = %#v, want empty non-nil", w, th, log)
				}
			}
			if r.BugsHit != nil {
				return fmt.Errorf("worker %d: BugsHit = %v, want nil", w, r.BugsHit)
			}
		}
		return nil
	})
}

// TestExecuteAllocCeiling pins the executor's steady-state allocations:
// the Result, its coverage array and its access array — three per
// execution with or without hooks or IRQ injections, since the
// fixture CTI hits no planted bug. Everything else comes from the pool.
// The race detector drops pooled items at random, so the count is only
// pinned without it.
func TestExecuteAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	c := newPoolCorpus(t)
	cti, sched := c.ctis[0], c.scheds[0][2] // IRQ-injecting schedule
	if len(sched.IRQs) == 0 {
		t.Fatal("fixture schedule has no IRQ injection")
	}
	const want = 3
	for name, exec := range map[string]func() (*Result, error){
		"interp": func() (*Result, error) { return Execute(c.k, cti, sched) },
		"hooked": func() (*Result, error) { return ExecuteHooked(c.k, cti, sched, 0, preemptEvery7) },
	} {
		r, err := exec()
		if err != nil {
			t.Fatal(err)
		}
		if len(r.BugsHit) != 0 || len(r.Accesses[0])+len(r.Accesses[1]) == 0 {
			t.Fatalf("%s: fixture must hit no bug and access memory (bugs %v)", name, r.BugsHit)
		}
		got := testing.AllocsPerRun(50, func() {
			if _, err := exec(); err != nil {
				t.Fatal(err)
			}
		})
		if got != want {
			t.Errorf("%s: %v allocations per execution, want %d", name, got, want)
		}
	}
}

package explore

import (
	"fmt"
	"sort"

	"snowcat/internal/faults"
	"snowcat/internal/ski"
)

// Resilience binds a fault injector to a resilience policy and carries the
// quarantine state of one run. A nil *Resilience is the fail-fast policy:
// one attempt, no injector, retries, step budget or quarantine, and Abort
// turns a failure into an ErrExec error instead of a skip.
//
// The concurrency contract splits the type in two halves. Execute reads
// only immutable configuration, so pool workers may call it concurrently;
// Quarantined, NoteFailure and Fold mutate the quarantine maps and must be
// called only from a pipeline's canonical sequential fold — the same rule
// the Ledger already follows. Quarantine is keyed by CTI ID, so a
// Resilience must not outlive the ID space it watches: use a fresh one per
// campaign run.
type Resilience struct {
	Inj    *faults.Injector
	Policy faults.Policy

	failed      map[int64]int  // given-up candidates per CTI ID
	quarantined map[int64]bool // CTIs past Policy.QuarantineAfter
}

// NewResilience validates the policy and returns a resilience layer with
// empty quarantine state. inj may be nil: retries, step budgets and
// quarantine still apply to genuine execution failures.
func NewResilience(inj *faults.Injector, p faults.Policy) (*Resilience, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Resilience{
		Inj:         inj,
		Policy:      p,
		failed:      make(map[int64]int),
		quarantined: make(map[int64]bool),
	}, nil
}

// Execute runs one candidate through the fault injector and retry loop on
// the given executor backend, bounding each real execution by the policy's
// step budget. Fault decisions are pure per-attempt hashes and corruption/
// validation apply to the returned result, so a chaos schedule is identical
// for every backend. It mutates nothing shared and is safe to call from
// pool workers.
func (r *Resilience) Execute(ex Executor, cti ski.CTI, sched ski.Schedule) faults.Report {
	var inj *faults.Injector
	var p faults.Policy
	if r != nil {
		inj, p = r.Inj, r.Policy
	}
	exec := func(cti ski.CTI, sched ski.Schedule) (*ski.Result, error) {
		return ex.ExecuteSteps(cti, sched, p.StepBudget)
	}
	return faults.Run(ex.Kernel(), inj, p, exec, cti, sched)
}

// Abort returns the error a failed report ends the run with: for a nil
// receiver it wraps ErrExec around the report's error, so the caller fails
// fast before charging anything; a non-nil layer returns nil and the
// failure degrades to a skipped candidate in Fold.
func (r *Resilience) Abort(rep faults.Report) error {
	if r != nil || rep.Err == nil {
		return nil
	}
	return fmt.Errorf("%w: %w", ErrExec, rep.Err)
}

// GivesUp reports whether a candidate that counts its own given-up
// executions (Razzer's and Snowboard's per-candidate sweeps) has reached
// Policy.QuarantineAfter and is abandoned. Always false for nil.
func (r *Resilience) GivesUp(failures int) bool {
	return r != nil && r.Policy.QuarantineAfter > 0 && failures >= r.Policy.QuarantineAfter
}

// Quarantined reports whether the CTI is on the quarantine list.
// Sequential fold only.
func (r *Resilience) Quarantined(ctiID int64) bool { return r != nil && r.quarantined[ctiID] }

// NoteFailure records one given-up candidate of the CTI and reports
// whether this crossed the quarantine threshold right now (so the caller
// fires the quarantine hook exactly once). Sequential fold only.
func (r *Resilience) NoteFailure(ctiID int64) bool {
	if r == nil || r.Policy.QuarantineAfter <= 0 || r.quarantined[ctiID] {
		return false
	}
	r.failed[ctiID]++
	if r.failed[ctiID] < r.Policy.QuarantineAfter {
		return false
	}
	r.quarantined[ctiID] = true
	return true
}

// Fold settles one candidate's execution report into the ledger in
// canonical order: quarantined CTIs are skipped uncharged, retries and
// fault penalties are charged to the simulated clock, and a candidate
// whose every attempt failed is skipped-and-logged, feeding the CTI's
// quarantine count. It returns the successful result, or nil when the
// candidate was skipped. Sequential fold only.
func (r *Resilience) Fold(c Candidate, rep faults.Report, led *Ledger, hooks *Hooks) *ski.Result {
	if r.Quarantined(c.CTI.ID) {
		led.RecordSkips(1)
		hooks.CandidateSkippedHook(c, faults.ErrQuarantined)
		return nil
	}
	if rep.Attempts > 1 {
		led.RecordRetries(rep.Attempts - 1)
		hooks.ExecRetriedHook(c, rep.Attempts-1)
	}
	led.Charge(rep.Attempts, 0)
	if s := rep.BackoffSeconds + rep.PenaltySeconds; s != 0 {
		led.ChargeSeconds(s)
	}
	if rep.Err != nil {
		led.RecordSkips(1)
		hooks.CandidateSkippedHook(c, rep.Err)
		if r.NoteFailure(c.CTI.ID) {
			led.RecordQuarantines(1)
			hooks.CTIQuarantinedHook(c.CTI)
		}
		return nil
	}
	return rep.Res
}

// ResilienceState is a portable snapshot of the quarantine memory, sorted
// so equal memories encode identically (checkpoint determinism).
type ResilienceState struct {
	FailedIDs    []int64
	FailedCounts []int
	Quarantined  []int64
}

// State captures the failure/quarantine memory; nil has none.
func (r *Resilience) State() ResilienceState {
	var st ResilienceState
	if r == nil {
		return st
	}
	for id := range r.failed {
		st.FailedIDs = append(st.FailedIDs, id)
	}
	sort.Slice(st.FailedIDs, func(i, j int) bool { return st.FailedIDs[i] < st.FailedIDs[j] })
	st.FailedCounts = make([]int, len(st.FailedIDs))
	for i, id := range st.FailedIDs {
		st.FailedCounts[i] = r.failed[id]
	}
	for id := range r.quarantined {
		st.Quarantined = append(st.Quarantined, id)
	}
	sort.Slice(st.Quarantined, func(i, j int) bool { return st.Quarantined[i] < st.Quarantined[j] })
	return st
}

// RestoreState replaces the failure/quarantine memory from a snapshot.
// A nil receiver keeps no memory, so it accepts only an empty snapshot.
func (r *Resilience) RestoreState(st ResilienceState) error {
	if len(st.FailedIDs) != len(st.FailedCounts) {
		return fmt.Errorf("explore: resilience snapshot with %d ids but %d counts",
			len(st.FailedIDs), len(st.FailedCounts))
	}
	if r == nil {
		if len(st.FailedIDs) != 0 || len(st.Quarantined) != 0 {
			return fmt.Errorf("explore: resilience snapshot restored into a nil (fail-fast) layer")
		}
		return nil
	}
	r.failed = make(map[int64]int, len(st.FailedIDs))
	for i, id := range st.FailedIDs {
		r.failed[id] = st.FailedCounts[i]
	}
	r.quarantined = make(map[int64]bool, len(st.Quarantined))
	for _, id := range st.Quarantined {
		r.quarantined[id] = true
	}
	return nil
}

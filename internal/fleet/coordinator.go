package fleet

import (
	"errors"
	"fmt"

	"snowcat/internal/campaign"
	"snowcat/internal/faults"
	"snowcat/internal/mlpct"
	"snowcat/internal/parallel"
	"snowcat/internal/strategy"
)

// Coordinator drives one campaign over a fleet, round by round. Each round
// settles a fixed chunk of the canonical CTI stream: the coordinator
// profiles the chunk locally, plans it (scoring fans out to the shards via
// the campaign config's predictor — set it to Fleet.Client for fleet
// routing), executes the plans locally, and folds the results into the
// campaign's sequential spine. After every round the full campaign state —
// fold, strategy memory, quarantine memory — checkpoints to disk, so a
// crashed coordinator resumes where it stopped.
//
// Failure model: a request to a dead shard panics with ShardDownError;
// the coordinator recovers it, restarts the shard, rolls the campaign
// state back to the round's start (the in-memory twin of the checkpoint),
// and replays the round. Predictions are bit-identical across restarts —
// a restarted shard is cold but not different — so a chaos-ridden run's
// History is DeepEqual to an undisturbed one.
type Coordinator struct {
	Fleet  *Fleet
	Runner *campaign.Runner
	// Campaign is the campaign to run. Set Campaign.Pred to Fleet.Client
	// for fleet-routed MLPCT (nil runs plain PCT, which never touches the
	// shards). Hooks must be nil when Chaos is set: a replayed round would
	// re-fire them.
	Campaign campaign.Config
	// RoundSize is the CTIs settled per round (and per checkpoint);
	// <= 0 selects 8.
	RoundSize int
	// CheckpointPath, when non-empty, persists campaign state after every
	// round and resumes from it when the file exists.
	CheckpointPath string
	// Chaos, when non-nil, decides shard kills: at every round start each
	// shard is killed iff Chaos.Decide(shard, "fleet-round-<r>", 0) fires.
	// Decisions are pure hashes of (seed, shard, round), so a chaos
	// schedule is reproducible.
	Chaos *faults.Injector
	// MaxRestarts bounds shard restarts per round before giving up;
	// <= 0 selects 8.
	MaxRestarts int
	// StopAfter, when positive, makes Run return ErrStopped after settling
	// (and checkpointing) that many rounds in this invocation — the
	// graceful-drain hook, and how tests exercise crash/resume without a
	// real crash. Requires CheckpointPath, otherwise the stopped progress
	// would be unrecoverable.
	StopAfter int
}

// ErrStopped reports a run that stopped at its configured StopAfter round
// boundary; the checkpoint holds the progress and a fresh Run resumes it.
var ErrStopped = errors.New("fleet: stopped at configured round boundary")

// Run executes the campaign and returns its history.
func (co *Coordinator) Run() (*campaign.History, error) {
	c := co.Campaign
	r := co.Runner
	roundSize := co.RoundSize
	if roundSize <= 0 {
		roundSize = 8
	}
	maxRestarts := co.MaxRestarts
	if maxRestarts <= 0 {
		maxRestarts = 8
	}
	if co.Chaos != nil && c.Hooks != nil {
		return nil, fmt.Errorf("fleet: chaos with hooks would re-fire them on replayed rounds")
	}
	if co.StopAfter > 0 && co.CheckpointPath == "" {
		return nil, fmt.Errorf("fleet: StopAfter without CheckpointPath would drop the stopped progress")
	}

	jobs, err := r.Stream(c)
	if err != nil {
		return nil, err
	}
	exp := r.Explorer(c)
	fold := campaign.NewFold(c)

	startRound := 0
	if co.CheckpointPath != "" {
		ck, err := LoadCheckpoint(co.CheckpointPath)
		switch {
		case errors.Is(err, ErrNoCheckpoint):
			// Fresh campaign.
		case err != nil:
			return nil, err
		default:
			if err := co.resume(ck, fold, c); err != nil {
				return nil, err
			}
			startRound = ck.NextRound
		}
	}

	rounds := (len(jobs) + roundSize - 1) / roundSize
	settled := 0
	for round := startRound; round < rounds; round++ {
		lo := round * roundSize
		hi := lo + roundSize
		if hi > len(jobs) {
			hi = len(jobs)
		}
		chunk := jobs[lo:hi]

		// The round's rollback point: the in-memory twin of the checkpoint.
		foldSnap := fold.State()
		var stratSnap strategy.State
		if c.Strat != nil {
			stratSnap = c.Strat.Save()
		}
		resSnap := c.Resilience.State()

		// Chaos: decide this round's shard kills up front, deterministically.
		if co.Chaos != nil {
			for s := 0; s < co.Fleet.Shards(); s++ {
				if co.Fleet.Server(s) != nil &&
					co.Chaos.Decide(int64(s), fmt.Sprintf("fleet-round-%d", round), 0) != faults.None {
					co.Fleet.Kill(s)
				}
			}
		}

		for attempt := 0; ; attempt++ {
			err := co.runRound(c, exp, chunk, fold)
			if err == nil {
				break
			}
			var down ShardDownError
			if !errors.As(err, &down) || attempt >= maxRestarts {
				return nil, fmt.Errorf("fleet: round %d: %w", round, err)
			}
			// Restart the dead shard, roll the round back, replay.
			if rerr := co.Fleet.Restart(down.Shard); rerr != nil {
				return nil, fmt.Errorf("fleet: round %d: restart shard %d: %w", round, down.Shard, rerr)
			}
			if rerr := fold.RestoreState(foldSnap); rerr != nil {
				return nil, fmt.Errorf("fleet: round %d rollback: %w", round, rerr)
			}
			if c.Strat != nil {
				if rerr := c.Strat.Load(stratSnap); rerr != nil {
					return nil, fmt.Errorf("fleet: round %d rollback: %w", round, rerr)
				}
			}
			if rerr := c.Resilience.RestoreState(resSnap); rerr != nil {
				return nil, fmt.Errorf("fleet: round %d rollback: %w", round, rerr)
			}
		}

		if co.CheckpointPath != "" {
			ck := &Checkpoint{
				Name:      c.Name,
				Seed:      c.Seed,
				NumCTIs:   c.NumCTIs,
				RoundSize: roundSize,
				NextRound: round + 1,
				Fold:      fold.State(),
			}
			if c.Strat != nil {
				st := c.Strat.Save()
				ck.Strategy = &st
			}
			if c.Resilience != nil {
				st := c.Resilience.State()
				ck.Resilience = &st
			}
			if err := SaveCheckpoint(co.CheckpointPath, ck); err != nil {
				return nil, fmt.Errorf("fleet: round %d: %w", round, err)
			}
		}
		settled++
		if co.StopAfter > 0 && settled >= co.StopAfter && round+1 < rounds {
			return nil, ErrStopped
		}
	}
	return fold.Finish(), nil
}

// resume restores campaign state from a checkpoint, rejecting one that
// belongs to a different campaign or round geometry.
func (co *Coordinator) resume(ck *Checkpoint, fold *campaign.Fold, c campaign.Config) error {
	if ck.Name != c.Name || ck.Seed != c.Seed || ck.NumCTIs != c.NumCTIs {
		return fmt.Errorf("fleet: checkpoint is for campaign %q seed=%d n=%d, not %q seed=%d n=%d",
			ck.Name, ck.Seed, ck.NumCTIs, c.Name, c.Seed, c.NumCTIs)
	}
	rs := co.RoundSize
	if rs <= 0 {
		rs = 8
	}
	if ck.RoundSize != rs {
		return fmt.Errorf("fleet: checkpoint round size %d differs from configured %d", ck.RoundSize, rs)
	}
	if err := fold.RestoreState(ck.Fold); err != nil {
		return err
	}
	if ck.Strategy != nil {
		if c.Strat == nil {
			return fmt.Errorf("fleet: checkpoint carries strategy state but campaign has no strategy")
		}
		if err := c.Strat.Load(*ck.Strategy); err != nil {
			return err
		}
	}
	if ck.Resilience != nil {
		if c.Resilience == nil {
			return fmt.Errorf("fleet: checkpoint carries resilience state but campaign has none")
		}
		if err := c.Resilience.RestoreState(*ck.Resilience); err != nil {
			return err
		}
	}
	return nil
}

// runRound runs one chunk through profile → plan → execute → fold. A
// ShardDownError panic anywhere in the round (planning scores through the
// fleet; execution and folding are local) is converted to an error for
// the caller's restart-and-retry loop.
func (co *Coordinator) runRound(c campaign.Config, exp *mlpct.Explorer, chunk []campaign.CTIJob, fold *campaign.Fold) (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			if down, ok := rec.(ShardDownError); ok {
				err = down
				return
			}
			panic(rec)
		}
	}()
	profs, err := co.Runner.ProfileAll(chunk, c.Parallel)
	if err != nil {
		return unwrapShardDown(err)
	}
	plans, err := co.Runner.PlanAll(c, exp, chunk, profs)
	if err != nil {
		return unwrapShardDown(err)
	}
	execs, err := co.Runner.ExecuteAll(c, plans)
	if err != nil {
		return unwrapShardDown(err)
	}
	for i, p := range plans {
		fold.SettleCTI(c, p, profs[i], execs[i])
	}
	return nil
}

// unwrapShardDown digs a ShardDownError out of a worker-pool panic so the
// retry loop sees the typed error no matter which phase it escaped from.
func unwrapShardDown(err error) error {
	var pe *parallel.PanicError
	if errors.As(err, &pe) {
		if down, ok := pe.Value.(ShardDownError); ok {
			return down
		}
	}
	return err
}

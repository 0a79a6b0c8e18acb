package main

import (
	"fmt"
	"reflect"

	"snowcat/internal/campaign"
	"snowcat/internal/dataset"
	"snowcat/internal/explore"
	"snowcat/internal/kernel"
	"snowcat/internal/mlpct"
	"snowcat/internal/serve"
	"snowcat/internal/ski"
	"snowcat/internal/strategy"
	"snowcat/internal/stream"
	"snowcat/internal/trainer"
)

const (
	// Loop i draws its STI pairs from learnStreamSeed+i; the workload seed
	// draws every CTI's exploration seed, as in the campaigns.
	learnStreamSeed  = 40
	learnLoops       = 2
	learnCTIs        = 30
	learnReducedCTIs = 6
)

// learnEnv runs retrained closed learning loops (BenchmarkLearnLoop's
// retrained shape) launched from the MLPCT campaign's trained PIC.
type learnEnv struct {
	k       *kernel.Kernel
	tm      *campaign.TrainedModel
	seed    uint64
	workers int
}

func setupLearn(seed uint64, workers int) (env, int, error) {
	k := kernel.Generate(kernel.SmallConfig(kernelSeed))
	tm, err := trainModel(k, workers)
	if err != nil {
		return nil, 0, err
	}
	return &learnEnv{k: k, tm: tm, seed: seed, workers: workers}, 0, nil
}

func (e *learnEnv) loopConfig(i, ctis, workers int) trainer.LoopConfig {
	return trainer.LoopConfig{
		Name: "LEARN-retrained", Seed: learnStreamSeed + uint64(i), NumCTIs: ctis,
		Opts: campaignOpts(), Cost: campaign.PaperCosts(), Strat: strategy.NewS1(),
		Parallel: workers,
		Train:    trainer.Config{RetrainEvery: 60, MinNew: 8, Tune: true},
	}
}

// loopFingerprint hashes the loops' results without their datasets (whose
// sizes it keeps).
func loopFingerprint(rs []*trainer.LoopResult) string {
	type view struct {
		Hist                               *campaign.History
		Rounds                             []trainer.RoundStats
		Versions                           []string
		ExecsToFirstBug, Examples, Deduped int
		DatasetExamples                    int
	}
	vs := make([]view, len(rs))
	for i, r := range rs {
		vs[i] = view{r.Hist, r.Rounds, r.Versions, r.ExecsToFirstBug, r.Examples, r.Deduped, r.Dataset.NumExamples()}
	}
	return fingerprint(vs)
}

// loops runs the learn loops. With reseedJobs each loop's CTIs explore
// with seeds drawn from the workload seed; without, each loop is exactly
// trainer.Learn's, which reduced holds it to.
func (e *learnEnv) loops(ctis, workers int, reseedJobs bool, tr *tracer) ([]*trainer.LoopResult, *phases, error) {
	var out []*trainer.LoopResult
	ph := newPhases(tr)
	for i := 0; i < learnLoops; i++ {
		var jobSeeds *uint64
		if reseedJobs {
			s := e.seed*1000 + uint64(i)
			jobSeeds = &s
		}
		res, err := learnLoop(e.k, e.tm, e.loopConfig(i, ctis, workers), jobSeeds, ph)
		if err != nil {
			return nil, nil, err
		}
		out = append(out, res)
	}
	return out, ph, nil
}

func (e *learnEnv) run(tr *tracer) (*outcome, error) {
	rs, ph, err := e.loops(learnCTIs, e.workers, true, tr)
	if err != nil {
		return nil, err
	}
	o := &outcome{fp: loopFingerprint(rs), quality: metrics{}, layers: metrics{}, detail: rs}
	races, bugs, rounds, examples := 0, 0, 0, 0
	firstBug := 0
	for _, r := range rs {
		h := r.Hist
		o.execs += h.TotalExecs
		o.infers += h.TotalInfers
		o.attempted += h.TotalExecs + 1
		o.simH += lastHours(h)
		races += h.FinalRaces
		bugs += len(h.BugsFound)
		rounds += len(r.Rounds)
		examples += r.Examples
		if firstBug >= 0 && r.ExecsToFirstBug >= 0 {
			firstBug += r.ExecsToFirstBug
		} else {
			firstBug = -1 // censored: some loop never hit a planted bug
		}
	}
	o.quality.set("races", float64(races), "count")
	o.quality.set("races_per_sim_h", perUnit(float64(races), o.simH), "1/h")
	o.quality.set("bugs", float64(bugs), "count")
	if tr == nil {
		return o, nil
	}
	m := o.layers
	execLayers(m, tr)
	ledgerLayers(m, campaign.PaperCosts(), o.execs, o.infers)
	campaignLayers(m, tr, ph)
	m.set("campaign.plan_alloc_mb", ph.allocMB["serve.plan"], "MB")
	m.set("syz.profiles", float64(2*learnCTIs*learnLoops), "count")
	m.set("serve.plan_s", tr.total("serve.plan"), "s")
	m.set("stream.fold_s", tr.total("stream.publish")+tr.total("stream.close"), "s")
	m.set("trainer.round_s", tr.total("trainer.round"), "s")
	m.set("trainer.rounds", float64(rounds), "count")
	m.set("trainer.examples", float64(examples), "count")
	m.set("trainer.execs_to_first_bug", float64(firstBug), "count")
	m.set("strategy.accept_rate", perUnit(float64(o.execs), float64(o.infers)), "frac")
	return o, nil
}

// learnLoop is trainer.Learn rebuilt from its public calls, so that a
// traced run can time each stage: serving (a sync serve.Server), the
// outcome stream, the trainer's rounds and the campaign phases. With
// jobSeeds set, the CTIs' exploration seeds are drawn from it (see
// reseed); with it nil the loop is exactly trainer.Learn's.
func learnLoop(k *kernel.Kernel, tm *campaign.TrainedModel, cfg trainer.LoopConfig, jobSeeds *uint64, ph *phases) (*trainer.LoopResult, error) {
	tr := ph.tr
	reg := serve.NewRegistry()
	if err := reg.Load("v1", tm.Model, tm.TC); err != nil {
		return nil, err
	}
	srv := serve.New(reg, serve.Config{Sync: true, Workers: cfg.Parallel})
	defer srv.Close()
	if err := srv.Swap("v1"); err != nil {
		return nil, err
	}
	bus := stream.New(dataset.NewCollector(k, cfg.Seed), stream.Config{Buffer: cfg.Buffer, Workers: cfg.Parallel})
	trn, err := trainer.New(tm.Model, tm.TC, bus, trainer.PublishTo(srv), cfg.Train)
	if err != nil {
		return nil, err
	}

	res := &trainer.LoopResult{ExecsToFirstBug: -1}
	execs := 0
	hooks := bus.Hooks(&explore.Hooks{ScheduleExecuted: func(c explore.Candidate, r *ski.Result) {
		execs++
		if res.ExecsToFirstBug < 0 && len(r.BugsHit) > 0 {
			res.ExecsToFirstBug = execs
		}
	}})
	c := campaign.Config{
		Name: cfg.Name, Seed: cfg.Seed, NumCTIs: cfg.NumCTIs,
		Opts: cfg.Opts, Cost: cfg.Cost,
		Pred:  serve.NewClient(srv, ""),
		Strat: cfg.Strat, Exec: cfg.Exec,
		Parallel: cfg.Parallel, Resilience: cfg.Resilience,
		Hooks: hooks,
	}
	if tr != nil {
		publish := hooks.ScheduleExecuted
		hooks.ScheduleExecuted = func(c explore.Candidate, r *ski.Result) {
			start := tr.now()
			publish(c, r)
			tr.leaf("stream.publish", start)
		}
		if c.Exec == nil {
			c.Exec = explore.DefaultExecutor(k)
		}
		c.Pred, c.Exec = wrapPredictor(c.Pred, tr), wrapExecutor(c.Exec, tr)
	}
	runner := campaign.NewRunner(k)
	jobs, err := runner.Stream(c)
	if err != nil {
		return nil, err
	}
	if jobSeeds != nil {
		reseed(jobs, *jobSeeds)
	}
	var profs []campaign.Profiles
	if err := ph.do("campaign.profile", func() (err error) {
		profs, err = runner.ProfileAll(jobs, c.Parallel)
		return err
	}); err != nil {
		return nil, err
	}
	exp := runner.Explorer(c)
	fold := campaign.NewFold(c)
	for i := range jobs {
		var outs [][]campaign.ExecOutcome
		var plans []*mlpct.Plan
		if err := ph.do("serve.plan", func() (err error) {
			plans, err = runner.PlanAll(c, exp, jobs[i:i+1], profs[i:i+1])
			return err
		}); err != nil {
			return nil, err
		}
		if err := ph.do("campaign.execute", func() (err error) {
			outs, err = runner.ExecuteAll(c, plans)
			return err
		}); err != nil {
			return nil, err
		}
		ph.do("campaign.fold", func() error {
			fold.SettleCTI(c, plans[0], profs[i], outs[0])
			return nil
		})
		var round *trainer.RoundStats
		if err := ph.do("trainer.round", func() (err error) {
			round, err = trn.MaybeRound(fold.Seconds())
			return err
		}); err != nil {
			return nil, err
		}
		if round != nil {
			strategy.NotifyVersion(cfg.Strat, round.Version)
		}
	}
	res.Hist = fold.Finish()
	var ds *dataset.Dataset
	if err := ph.do("stream.close", func() (err error) {
		ds, err = bus.Close()
		return err
	}); err != nil {
		return nil, err
	}
	stats := bus.Stats()
	res.Dataset = ds
	res.Examples = stats.Ingested
	res.Deduped = stats.Deduped
	res.Rounds = trn.Rounds()
	res.Versions = append([]string{"v1"}, trn.Versions()...)
	return res, nil
}

// check holds each loop to the stream's and trainer's bookkeeping: every
// execution is labelled once, and every published round is a served
// version.
func (e *learnEnv) check(o *outcome) error {
	for _, r := range o.detail.([]*trainer.LoopResult) {
		if r.Examples+r.Deduped != r.Hist.TotalExecs {
			return fmt.Errorf("%d executions streamed as %d examples and %d duplicates",
				r.Hist.TotalExecs, r.Examples, r.Deduped)
		}
		if len(r.Versions) != len(r.Rounds)+1 {
			return fmt.Errorf("%d rounds published but %d versions served", len(r.Rounds), len(r.Versions))
		}
	}
	return nil
}

// reduced holds the loops equal at 1 and at n workers, and the rebuilt
// loop DeepEqual to trainer.Learn.
func (e *learnEnv) reduced(n int) error {
	one, _, err := e.loops(learnReducedCTIs, 1, true, nil)
	if err != nil {
		return err
	}
	many, _, err := e.loops(learnReducedCTIs, n, true, nil)
	if err != nil {
		return err
	}
	if loopFingerprint(one) != loopFingerprint(many) {
		return fmt.Errorf("learn loops differ between 1 and %d workers", n)
	}
	rebuilt, _, err := e.loops(learnReducedCTIs, n, false, newTracer())
	if err != nil {
		return err
	}
	for i, r := range rebuilt {
		want, err := trainer.Learn(e.k, e.tm.Model, e.tm.TC, e.loopConfig(i, learnReducedCTIs, n))
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(r, want) {
			return fmt.Errorf("the rebuilt learn loop differs from trainer.Learn")
		}
	}
	return nil
}

package main

import (
	"fmt"
	"reflect"

	"snowcat/internal/campaign"
	"snowcat/internal/dataset"
	"snowcat/internal/explore"
	"snowcat/internal/kernel"
	"snowcat/internal/mlpct"
	"snowcat/internal/pic"
	"snowcat/internal/race"
	"snowcat/internal/strategy"
	"snowcat/internal/xrand"
)

const (
	// kernelSeed selects the small kernel preset every campaign runs on.
	kernelSeed = 1
	// streamSeed draws the campaigns' STI pairs. The workload seed draws
	// each CTI's exploration seed (the PCT sampler's), so a new seed
	// changes every schedule proposed, scored and executed while the mix
	// of easy and hard STI pairs stays put; that keeps the spread of a
	// run's work across seeds to a few percent.
	streamSeed = 30

	pctCTIs   = 400
	mlpctCTIs = 48
	// The reduced-scale checks run this many CTIs.
	pctReducedCTIs   = 40
	mlpctReducedCTIs = 3
)

// campaignOpts are the CLI's campaignOptions(20).
func campaignOpts() mlpct.Options {
	return mlpct.Options{ExecBudget: 20, InferenceCap: 640, Batch: 32}
}

// trainModel collects, trains and tunes the PIC the MLPCT campaign and
// the learn loop score with.
func trainModel(k *kernel.Kernel, workers int) (*campaign.TrainedModel, error) {
	return campaign.Train(k, campaign.TrainOptions{
		Name:           "PIC",
		Model:          pic.Config{Dim: 16, Layers: 3, LR: 3e-3, Epochs: 2, Seed: 4, PosWeight: 8},
		Data:           dataset.Config{Seed: 5, NumCTIs: 20, InterleavingsPerCTI: 8, Parallel: workers},
		PretrainEpochs: 2,
	})
}

// campaignEnv runs one campaign over the preset kernel: plain PCT when tm
// is nil, MLPCT with strategy S1 otherwise.
type campaignEnv struct {
	k       *kernel.Kernel
	r       *campaign.Runner
	ex      explore.Executor
	tm      *campaign.TrainedModel
	seed    uint64
	ctis    int
	small   int // CTIs of the reduced-scale checks
	workers int
}

func newCampaignEnv(seed uint64, workers int) (*campaignEnv, error) {
	k := kernel.Generate(kernel.SmallConfig(kernelSeed))
	ex, err := explore.NewExecutor("interp", explore.Env{Kernel: k})
	if err != nil {
		return nil, err
	}
	return &campaignEnv{k: k, r: campaign.NewRunner(k), ex: ex, seed: seed, workers: workers}, nil
}

func setupPCT(seed uint64, workers int) (env, int, error) {
	e, err := newCampaignEnv(seed, workers)
	if err != nil {
		return nil, 0, err
	}
	e.ctis, e.small = pctCTIs, pctReducedCTIs
	return e, 0, nil
}

func setupMLPCT(seed uint64, workers int) (env, int, error) {
	e, err := newCampaignEnv(seed, workers)
	if err != nil {
		return nil, 0, err
	}
	e.ctis, e.small = mlpctCTIs, mlpctReducedCTIs
	e.tm, err = trainModel(e.k, workers)
	return e, 0, err
}

// config is the campaign's configuration; a traced run wraps the
// executor and predictor in timing wrappers.
func (e *campaignEnv) config(ctis, workers int, tr *tracer) campaign.Config {
	c := campaign.Config{
		Name: "PCT", Seed: streamSeed, NumCTIs: ctis, Opts: campaignOpts(),
		Cost: campaign.PaperCosts(), Parallel: workers, Exec: e.ex,
	}
	if e.tm != nil {
		c.Name, c.Pred, c.Strat = "MLPCT-S1", e.tm.Predictor(), strategy.NewS1()
	}
	if tr != nil {
		c.Exec = wrapExecutor(c.Exec, tr)
		if c.Pred != nil {
			c.Pred = wrapPredictor(c.Pred, tr)
		}
	}
	return c
}

// reseed replaces each job's exploration seed with one drawn from seed.
func reseed(jobs []campaign.CTIJob, seed uint64) {
	rng := xrand.New(seed ^ 0xbe7c4)
	for i := range jobs {
		jobs[i].Seed = rng.Uint64()
	}
}

// campaignRun is Runner.Run phase by phase (the phases are the runner's
// public API, and Run is their composition), so a traced run can time
// each one and each MLPCT CTI plan. With reseedJobs false it is exactly
// Run; the reduced-scale check holds it to that.
func (e *campaignEnv) campaignRun(c campaign.Config, reseedJobs bool, tr *tracer) (*campaign.History, *phases, error) {
	r := e.r
	ph := newPhases(tr)
	jobs, err := r.Stream(c)
	if err != nil {
		return nil, nil, err
	}
	if reseedJobs {
		reseed(jobs, e.seed)
	}
	var profs []campaign.Profiles
	if err := ph.do("campaign.profile", func() (err error) {
		profs, err = r.ProfileAll(jobs, c.Parallel)
		return err
	}); err != nil {
		return nil, nil, err
	}
	exp := r.Explorer(c)
	var plans []*mlpct.Plan
	if err := ph.do("campaign.plan", func() (err error) {
		if tr == nil || c.Pred == nil {
			plans, err = r.PlanAll(c, exp, jobs, profs)
			return err
		}
		// PlanAll's MLPCT branch, one span per CTI.
		plans = make([]*mlpct.Plan, len(jobs))
		for i := range jobs {
			id := tr.begin("mlpct.plan")
			plans[i] = exp.PlanMLPCT(jobs[i].CTI, profs[i].PA, profs[i].PB, jobs[i].Seed, c.Pred, c.Strat)
			tr.end(id)
		}
		return nil
	}); err != nil {
		return nil, nil, err
	}
	var execs [][]campaign.ExecOutcome
	if err := ph.do("campaign.execute", func() (err error) {
		execs, err = r.ExecuteAll(c, plans)
		return err
	}); err != nil {
		return nil, nil, err
	}
	if tr != nil {
		// ExecuteAll detects races inside its pool; detect them again
		// here, one timed call per execution, and hold the two equal.
		for _, outs := range execs {
			for _, o := range outs {
				start := tr.now()
				got := race.Detect(o.Res)
				tr.leaf("race.detect", start)
				if !reflect.DeepEqual(got, o.Races) {
					return nil, nil, fmt.Errorf("%w: race.Detect disagrees with ExecuteAll", errCheck)
				}
			}
		}
	}
	var hist *campaign.History
	ph.do("campaign.fold", func() error {
		fold := campaign.NewFold(c)
		for i, p := range plans {
			fold.SettleCTI(c, p, profs[i], execs[i])
		}
		hist = fold.Finish()
		return nil
	})
	return hist, ph, nil
}

func lastHours(h *campaign.History) float64 {
	if len(h.Points) == 0 {
		return 0
	}
	return h.Points[len(h.Points)-1].Hours
}

func (e *campaignEnv) run(tr *tracer) (*outcome, error) {
	c := e.config(e.ctis, e.workers, tr)
	h, ph, err := e.campaignRun(c, true, tr)
	if err != nil {
		return nil, err
	}
	o := &outcome{
		fp: fingerprint(h), execs: h.TotalExecs, infers: h.TotalInfers,
		attempted: h.TotalExecs + 1, simH: lastHours(h), quality: metrics{}, layers: metrics{},
	}
	o.quality.set("races", float64(h.FinalRaces), "count")
	o.quality.set("races_per_sim_h", perUnit(float64(h.FinalRaces), o.simH), "1/h")
	o.quality.set("bugs", float64(len(h.BugsFound)), "count")
	if tr == nil {
		return o, nil
	}
	m := o.layers
	execLayers(m, tr)
	campaignLayers(m, tr, ph)
	ledgerLayers(m, c.Cost, h.TotalExecs, h.TotalInfers)
	m.set("syz.profiles", float64(2*h.CTIs), "count")
	detect := tr.total("race.detect")
	m.set("race.detect_s", detect, "s")
	m.set("race.detect_us_per_exec", perUnit(detect*1e6, float64(h.TotalExecs)), "us")
	m.set("race.new_per_exec", perUnit(float64(h.FinalRaces), float64(h.TotalExecs)), "1/exec")
	if c.Pred != nil {
		plans := tr.durations("mlpct.plan")
		m.set("mlpct.plan_s", tr.total("mlpct.plan"), "s")
		m.set("mlpct.plan_cti_p50_ms", quantile(plans, 0.5)*1e3, "ms")
		m.set("mlpct.plan_cti_p99_ms", quantile(plans, 0.99)*1e3, "ms")
		m.set("mlpct.plan_cti_samples", float64(len(plans)), "count")
		m.set("mlpct.walk_self_s", tr.selfTime("mlpct.plan"), "s")
		m.set("strategy.accept_rate", perUnit(float64(h.TotalExecs), float64(h.TotalInfers)), "frac")
	}
	return o, nil
}

// check holds the run's history to the fold's invariants and, for MLPCT,
// to Figure 5's shape: more races per simulated hour than plain PCT on
// the same stream.
func (e *campaignEnv) check(o *outcome) error {
	if e.tm == nil {
		if want := e.ctis * campaignOpts().ExecBudget; o.execs > want {
			return fmt.Errorf("PCT executed %d schedules, budget allows %d", o.execs, want)
		}
		return nil
	}
	pct := &campaignEnv{k: e.k, r: e.r, ex: e.ex, seed: e.seed, ctis: e.ctis, workers: e.workers}
	p, err := pct.run(nil)
	if err != nil {
		return err
	}
	ml, base := o.quality["races_per_sim_h"].Value, p.quality["races_per_sim_h"].Value
	if ml <= base {
		return fmt.Errorf("MLPCT found %.1f races per simulated hour, PCT %.1f on the same stream", ml, base)
	}
	return nil
}

// reduced holds the history equal at 1 and at n workers, and the
// phase-by-phase composition equal to Runner.Run.
func (e *campaignEnv) reduced(n int) error {
	var fps []string
	for _, w := range []int{1, n} {
		h, _, err := e.campaignRun(e.config(e.small, w, nil), true, nil)
		if err != nil {
			return err
		}
		fps = append(fps, fingerprint(h))
	}
	if fps[0] != fps[1] {
		return fmt.Errorf("history differs between 1 and %d workers", n)
	}
	run, err := e.r.Run(e.config(e.small, n, nil))
	if err != nil {
		return err
	}
	phased, _, err := e.campaignRun(e.config(e.small, n, nil), false, nil)
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(run, phased) {
		return fmt.Errorf("phase-by-phase campaign differs from Runner.Run")
	}
	return nil
}

package main

import (
	"fmt"

	"snowcat/internal/amplify"
	"snowcat/internal/dataset"
	"snowcat/internal/explore"
	"snowcat/internal/kernel"
	"snowcat/internal/pic"
	"snowcat/internal/predictor"
)

const (
	// familyKernelSeed and bugsPerFamily shape the family kernel: the
	// small preset with this many planted bugs of each amplify family.
	familyKernelSeed = 3
	bugsPerFamily    = 12
	// witnessSamples bounds each witness search before it falls back to
	// the breakpoint-pair witness.
	witnessSamples = 5000
)

var families = []kernel.BugKind{kernel.MissedWakeup, kernel.DoubleFree, kernel.TOCTOU}

// climbModes are the three ways each witness is climbed.
var climbModes = []string{"exhaustive", "guided", "midrun"}

// amplifyEnv climbs one witness per planted family bug, each three ways.
type amplifyEnv struct {
	k       *kernel.Kernel
	ex      explore.Executor
	m       *pic.Model
	tc      *pic.TokenCache
	wits    []amplify.Witness
	kinds   []kernel.BugKind // family of each witness
	workers int
}

// setupAmplify generates the family kernel, discovers a witness for each
// family bug from the workload seed, and trains the small ranking PIC.
func setupAmplify(seed uint64, workers int) (env, int, error) {
	kc := kernel.SmallConfig(familyKernelSeed)
	kc.NumMissedWakeup, kc.NumDoubleFree, kc.NumTOCTOU = bugsPerFamily, bugsPerFamily, bugsPerFamily
	e := &amplifyEnv{k: kernel.Generate(kc), workers: workers}
	var err error
	e.ex, err = explore.NewExecutor("interp", explore.Env{Kernel: e.k})
	if err != nil {
		return nil, 0, err
	}
	attempted := 0
	for _, kind := range families {
		for _, bug := range e.k.Bugs {
			if bug.Kind != kind {
				continue
			}
			attempted++
			w, err := amplify.DiscoverWitness(e.k, bug.ID, witnessSamples, seed)
			if err != nil {
				return nil, attempted, fmt.Errorf("witness for bug %d: %w", bug.ID, err)
			}
			e.wits = append(e.wits, w)
			e.kinds = append(e.kinds, kind)
		}
	}
	e.m = pic.New(pic.Config{Dim: 12, Layers: 2, LR: 3e-3, Epochs: 1, Seed: 402, PosWeight: 8})
	e.tc = pic.NewTokenCache(e.k, e.m.Vocab)
	ds, err := dataset.NewCollector(e.k, 403).Collect(dataset.Config{Seed: 404, NumCTIs: 6, InterleavingsPerCTI: 4})
	if err != nil {
		return nil, attempted, err
	}
	if _, err := e.m.Train(ds.Flatten(), e.tc); err != nil {
		return nil, attempted, err
	}
	return e, attempted, nil
}

// climbConfig is the amplify benchmarks' recipe for one mode.
func climbConfig(mode string, ex explore.Executor, pred predictor.Predictor, workers int) amplify.Config {
	c := amplify.Config{Seed: 23, Trials: 20, Radius: 6, Rounds: 8, Exec: ex, Parallel: workers}
	switch mode {
	case "guided":
		c.TopK, c.Pred = 24, pred
	case "midrun":
		c.MidRun = true
	}
	return c
}

// climbs runs every mode on each witness; reps[i][j] is witness i's
// climb in climbModes[j].
func (e *amplifyEnv) climbs(wits []amplify.Witness, workers int, led *explore.Ledger, tr *tracer) ([][]*amplify.Report, error) {
	ex := e.ex
	var pred predictor.Predictor = predictor.NewPIC(e.m, e.tc, "PIC")
	if tr != nil {
		ex, pred = wrapExecutor(ex, tr), wrapPredictor(pred, tr)
	}
	reps := make([][]*amplify.Report, len(wits))
	for i, w := range wits {
		for _, mode := range climbModes {
			c := climbConfig(mode, ex, pred, workers)
			c.Led = led
			var id int32
			if tr != nil {
				id = tr.begin("amplify." + mode)
			}
			rep, err := amplify.Run(w, c)
			if tr != nil {
				tr.end(id)
			}
			if err != nil {
				return nil, fmt.Errorf("%s climb of bug %d: %w", mode, w.BugID, err)
			}
			reps[i] = append(reps[i], rep)
		}
	}
	return reps, nil
}

func (e *amplifyEnv) run(tr *tracer) (*outcome, error) {
	led := explore.NewLedger(explore.PaperCosts())
	reps, err := e.climbs(e.wits, e.workers, led, tr)
	if err != nil {
		return nil, err
	}
	o := &outcome{fp: fingerprint(reps), infers: led.Inferences(), simH: led.Hours(),
		quality: metrics{}, layers: metrics{}, detail: reps}
	rate := 0.0
	var gen, executed, guidedGen, guidedPruned, notCheaper, stalls float64
	for _, rs := range reps {
		if rs[1].Best.Rate < rs[0].Best.Rate {
			stalls++
		}
		for j, r := range rs {
			o.execs += r.Execs
			o.attempted += r.Execs + 1
			rate += r.Best.Rate
			gen += float64(r.Generated)
			executed += float64(r.Executed)
			if climbModes[j] == "guided" {
				guidedGen += float64(r.Generated)
				guidedPruned += float64(r.Pruned)
				if r.Execs >= rs[0].Execs {
					notCheaper++
				}
			}
		}
	}
	o.quality.set("repro_pct", 100*rate/float64(len(reps)*len(climbModes)), "%")
	o.quality.set("amp_execs", float64(o.execs), "count")
	o.quality.set("amplify.guided_stalls", stalls, "count")
	o.quality.set("amplify.guided_not_cheaper", notCheaper, "count")
	if tr == nil {
		return o, nil
	}
	if tr.hooked.Load() == 0 {
		return nil, fmt.Errorf("%w: no mid-run climb reached ExecuteHooked", errCheck)
	}
	m := o.layers
	execLayers(m, tr)
	ledgerLayers(m, led.Cost(), led.Execs(), led.Inferences())
	for _, mode := range climbModes {
		m.set("amplify."+mode+"_s", tr.total("amplify."+mode), "s")
	}
	m.set("amplify.generated", gen, "count")
	m.set("amplify.executed", executed, "count")
	m.set("amplify.prune_frac", perUnit(guidedPruned, guidedGen), "frac")
	return o, nil
}

// check applies the amplify benchmarks' bars. Every exhaustive climb
// lifts its witness's repro rate at least 2x. Per family, over the
// witnesses whose guided climb reaches the exhaustive climb's rate, the
// guided climbs spend fewer executions in total. Guided climbs that stall
// below the exhaustive rate, and single witnesses where guided is not
// cheaper, are counted (amplify.guided_stalls, amplify.guided_not_cheaper)
// rather than failed: the bar is defined at rate parity only.
func (e *amplifyEnv) check(o *outcome) error {
	reps := o.detail.([][]*amplify.Report)
	exh, guided := map[kernel.BugKind]int{}, map[kernel.BugKind]int{}
	for i, rs := range reps {
		x, g := rs[0], rs[1]
		if x.Lift < 2 {
			return fmt.Errorf("bug %d: lift %.2fx below the 2x bar (baseline %.2f, best %.2f)",
				e.wits[i].BugID, x.Lift, x.Baseline.Rate, x.Best.Rate)
		}
		if g.Best.Rate >= x.Best.Rate {
			exh[e.kinds[i]] += x.Execs
			guided[e.kinds[i]] += g.Execs
		}
	}
	for _, kind := range families {
		if guided[kind] >= exh[kind] {
			return fmt.Errorf("%s: guided climbs at rate parity spent %d execs, exhaustive %d",
				kind, guided[kind], exh[kind])
		}
	}
	return nil
}

// reduced climbs the first witness of each family at 1 and at n workers.
func (e *amplifyEnv) reduced(n int) error {
	var wits []amplify.Witness
	for i, kind := range e.kinds {
		if i == 0 || e.kinds[i-1] != kind {
			wits = append(wits, e.wits[i])
		}
	}
	var fps []string
	for _, w := range []int{1, n} {
		reps, err := e.climbs(wits, w, nil, nil)
		if err != nil {
			return err
		}
		fps = append(fps, fingerprint(reps))
	}
	if fps[0] != fps[1] {
		return fmt.Errorf("amplify reports differ between 1 and %d workers", n)
	}
	return nil
}

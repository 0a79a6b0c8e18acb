// Command perfbench is the repository benchmark: four whole-run
// workloads (a PCT campaign, an MLPCT campaign, an amplify climb and a
// retrained learn loop) driven through the library's public API.
//
//	bash perfbench/run.sh --workload pct-campaign --seed 1 --seconds 15 --trace 0
//
// With --trace 0 it times untraced runs and prints the end-to-end
// metrics; with --trace 1 it alternates untraced and traced runs and
// prints the per-layer metrics of a traced run. Every run's outputs are
// checked; the last line of standard output is one JSON object. See
// README.md for the workloads and the layer-to-metric mapping.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// outcome is what one whole run produced.
type outcome struct {
	// fp fingerprints the run's result; repeats, worker counts and the
	// traced run must all agree on it.
	fp string
	// execs and infers count the run's dynamic executions and model
	// inferences; attempted counts every operation the run tried.
	execs, infers, attempted int
	// simH is the run's simulated time on the paper's cost model.
	simH float64
	// quality holds the workload's result metrics (races, bugs, repro
	// rates); they are deterministic per seed.
	quality metrics
	// layers holds the per-layer metrics a traced run derives.
	layers metrics
	// detail is the workload's own result, for its output checks.
	detail any
}

// env is one workload after set-up.
type env interface {
	// run performs one whole run; tr is nil for an untraced run.
	run(tr *tracer) (*outcome, error)
	// check applies the workload's output checks to an untraced outcome.
	check(o *outcome) error
	// reduced reruns the workload at reduced scale at 1 and at n workers
	// and fails if the two results differ.
	reduced(n int) error
}

type workload struct {
	name  string
	setup func(seed uint64, workers int) (env, int, error) // env, operations attempted
}

var workloads = []workload{
	{"pct-campaign", setupPCT},
	{"mlpct-campaign", setupMLPCT},
	{"amplify-climb", setupAmplify},
	{"learn-loop", setupLearn},
}

// Set-up runs at least minSetups times and until it has taken
// setupSeconds, at most maxSetups times; setup_s is the median.
const (
	minSetups    = 3
	maxSetups    = 25
	setupSeconds = 0.5
)

// minReps is the fewest timed runs a measurement takes, however long
// they last.
const minReps = 3

func main() {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "measurement time")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from traced runs")
	flag.Parse()
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	res, err := measure(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %v\n", w.name, *seed, err)
		if res == nil {
			os.Exit(1)
		}
	}
	line, merr := json.Marshal(res)
	if merr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding the result: %v\n", merr)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if err != nil {
		os.Exit(1)
	}
}

// result is the final line of output.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// errCheck marks a failed output check: the run still prints a result,
// with correct false.
var errCheck = errors.New("output check failed")

func measure(w *workload, seed uint64, window time.Duration, traced bool) (*result, error) {
	workers := runtime.NumCPU()
	var e env
	var setupS []float64
	attempted := 0
	for spent := 0.0; len(setupS) < minSetups || spent < setupSeconds && len(setupS) < maxSetups; {
		e = nil
		runtime.GC()
		t0 := time.Now()
		var n int
		var err error
		e, n, err = w.setup(seed, workers)
		setupS = append(setupS, time.Since(t0).Seconds())
		spent += setupS[len(setupS)-1]
		attempted += n
		if err != nil {
			return failOp(&result{Metrics: metrics{}}, attempted), fmt.Errorf("set-up: %w", err)
		}
	}
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	heapMB := float64(ms.HeapAlloc) / 1e6

	res := &result{Metrics: metrics{}}
	var first *outcome
	same := func(o *outcome, what string) error {
		attempted += o.attempted
		if first == nil {
			first = o
			return nil
		}
		if o.fp != first.fp {
			return fmt.Errorf("%w: %s result differs from the first run", errCheck, what)
		}
		return nil
	}

	var walls, allocs, tracedWalls []float64
	var layers []*outcome
	var lastTr *tracer
	start := time.Now()
	for {
		done := time.Since(start) >= window
		if done && (traced && len(tracedWalls) > 0 || !traced && len(walls) >= minReps) {
			break
		}
		// Untraced run: memory statistics are read outside the timed region.
		runtime.GC()
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		t0 := time.Now()
		o, err := e.run(nil)
		wall := time.Since(t0).Seconds()
		if err != nil {
			return failOp(res, attempted), err
		}
		runtime.ReadMemStats(&ms)
		walls = append(walls, wall)
		allocs = append(allocs, float64(ms.TotalAlloc-before)/1e6)
		if err := same(o, "untraced"); err != nil {
			return fail(res, attempted), err
		}
		if !traced {
			continue
		}
		runtime.GC()
		runtime.ReadMemStats(&ms)
		gcN, pause := ms.NumGC, ms.PauseTotalNs
		tr := newTracer()
		t0 = time.Now()
		o, err = e.run(tr)
		wall = time.Since(t0).Seconds()
		if err != nil {
			return failOp(res, attempted), err
		}
		runtime.ReadMemStats(&ms)
		if err := same(o, "traced"); err != nil {
			return fail(res, attempted), err
		}
		o.layers.set("gc.cycles", float64(ms.NumGC-gcN), "count")
		o.layers.set("gc.pause_s", float64(ms.PauseTotalNs-pause)/1e9, "s")
		o.layers.set("ski.exec_errors", float64(tr.execErrs.Load()), "count")
		// The traced run's second race.Detect pass is a check, not
		// tracing; its time is left out of the overhead.
		tracedWalls = append(tracedWalls, wall-tr.total("race.detect"))
		layers = append(layers, o)
		lastTr = tr
	}
	if lastTr != nil {
		path := filepath.Join(".bench_build", "perfbench", "spans", fmt.Sprintf("%s-seed%d.json", w.name, seed))
		if err := lastTr.write(path); err != nil {
			return nil, err
		}
	}

	if err := e.check(first); err != nil {
		return fail(res, attempted), fmt.Errorf("%w: %v", errCheck, err)
	}
	if err := e.reduced(max(workers, 2)); err != nil {
		return fail(res, attempted), fmt.Errorf("%w: %v", errCheck, err)
	}

	wall := median(walls)
	e2e := metrics{}
	e2e.set("setup_s", median(setupS), "s")
	e2e.set("setup_heap_mb", heapMB, "MB")
	e2e.set("wall_s", wall, "s")
	e2e.set("alloc_mb", median(allocs), "MB")

	q := metrics{}
	for k, v := range first.quality {
		q[k] = v
	}
	q.set("sim_h", first.simH, "h")
	q.set("execs_per_s", float64(first.execs)/wall, "1/s")
	q.set("infers_per_s", float64(first.infers)/wall, "1/s")
	q.set("fail_frac", 0, "frac")
	q.set("explore.host_s_per_sim_h", perUnit(wall, first.simH), "s/h")
	for _, k := range sortedKeys(e2e) {
		fmt.Printf("%-16s %-22s %14.6g %s\n", w.name, k, e2e[k].Value, e2e[k].Unit)
	}
	for _, k := range sortedKeys(q) {
		fmt.Printf("%-16s %-22s %14.6g %s\n", w.name, k, q[k].Value, q[k].Unit)
	}
	fmt.Printf("%-16s %-22s %14d runs (wall min %.4g, max %.4g s), %d setups, %d workers\n",
		w.name, "samples", len(walls), quantile(walls, 0), quantile(walls, 1), len(setupS), workers)

	res.Correct, res.Attempted = true, attempted
	if !traced {
		res.Metrics = e2e
		return res, nil
	}
	// Per-layer metrics come from the traced run of median wall time.
	order := make([]int, len(tracedWalls))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool { return tracedWalls[order[i]] < tracedWalls[order[j]] })
	pick := layers[order[len(order)/2]]
	for k, v := range q {
		res.Metrics[k] = v
	}
	for k, v := range pick.layers {
		res.Metrics[k] = v
	}
	res.Metrics.set("trace.overhead_frac", median(tracedWalls)/wall-1, "frac")
	for _, k := range layerMetrics {
		if _, ok := res.Metrics[k.name]; !ok {
			res.Metrics.set(k.name, 0, k.unit) // the workload never calls into this layer
		}
	}
	return res, nil
}

// fail marks the result incorrect after a failed output check.
func fail(res *result, attempted int) *result {
	res.Correct, res.Attempted = false, max(attempted, 1)
	return res
}

// failOp marks the result incorrect after a failed operation (an
// execution, a climb, a learn loop or a witness discovery): the run's
// error is its one counted failure.
func failOp(res *result, attempted int) *result {
	res = fail(res, attempted+1)
	res.Failed = 1
	return res
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the nearest-rank q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(i, 0)]
}

func sortedKeys(m metrics) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// layerMetrics lists every per-layer metric with its unit; a workload
// that never calls into a layer reports its metrics as 0.
var layerMetrics = []struct{ name, unit string }{
	{"sim_h", "h"}, {"races", "count"}, {"races_per_sim_h", "1/h"}, {"bugs", "count"},
	{"repro_pct", "%"}, {"amp_execs", "count"}, {"execs_per_s", "1/s"}, {"infers_per_s", "1/s"},
	{"fail_frac", "frac"},
	{"syz.profile_s", "s"}, {"syz.profiles", "count"},
	{"ski.exec_busy_s", "s"}, {"ski.execs", "count"}, {"ski.us_per_exec", "us"},
	{"ski.hooked_execs", "count"}, {"ski.exec_errors", "count"},
	{"race.detect_s", "s"}, {"race.detect_us_per_exec", "us"}, {"race.new_per_exec", "1/exec"},
	{"campaign.execute_s", "s"}, {"campaign.fold_s", "s"},
	{"campaign.profile_alloc_mb", "MB"}, {"campaign.plan_alloc_mb", "MB"},
	{"campaign.execute_alloc_mb", "MB"}, {"campaign.fold_alloc_mb", "MB"},
	{"campaign.execute_mallocs", "count"}, {"campaign.fold_mallocs", "count"},
	{"mlpct.plan_s", "s"}, {"mlpct.plan_cti_p50_ms", "ms"}, {"mlpct.plan_cti_p99_ms", "ms"},
	{"mlpct.plan_cti_samples", "count"}, {"mlpct.walk_self_s", "s"},
	{"pic.score_s", "s"}, {"pic.score_calls", "count"}, {"pic.graphs", "count"},
	{"pic.us_per_graph", "us"}, {"pic.ctx_s", "s"},
	{"strategy.accept_rate", "frac"},
	{"explore.exec_sim_h", "h"}, {"explore.infer_sim_h", "h"}, {"explore.startup_sim_h", "h"},
	{"explore.host_s_per_sim_h", "s/h"},
	{"amplify.exhaustive_s", "s"}, {"amplify.guided_s", "s"}, {"amplify.midrun_s", "s"},
	{"amplify.generated", "count"}, {"amplify.executed", "count"}, {"amplify.prune_frac", "frac"},
	{"amplify.guided_stalls", "count"}, {"amplify.guided_not_cheaper", "count"},
	{"serve.plan_s", "s"}, {"stream.fold_s", "s"}, {"trainer.round_s", "s"},
	{"trainer.rounds", "count"}, {"trainer.examples", "count"}, {"trainer.execs_to_first_bug", "count"},
	{"gc.cycles", "count"}, {"gc.pause_s", "s"}, {"trace.overhead_frac", "frac"},
}

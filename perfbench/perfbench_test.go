package main

import (
	"encoding/json"
	"os"
	"reflect"
	"runtime"
	"testing"

	"snowcat/internal/ctgraph"
	"snowcat/internal/explore"
	"snowcat/internal/kernel"
	"snowcat/internal/predictor"
	"snowcat/internal/serve"
	"snowcat/internal/ski"
)

// optional reports which optional interfaces v implements.
func optional(v any) [3]bool {
	_, batch := v.(predictor.BatchScorer)
	_, cti := v.(predictor.CTIScorer)
	_, hooked := v.(explore.HookedExecutor)
	return [3]bool{batch, cti, hooked}
}

// batchOnly and ctiOnly cover the two predictor shapes no shipped
// predictor has.
type batchOnly struct{ predictor.AllPos }

func (batchOnly) ScoreBatch(gs []*ctgraph.Graph, workers int) [][]float64 { return nil }

type ctiOnly struct{ predictor.AllPos }

func (ctiOnly) BeginCTI(*ctgraph.Base) {}
func (ctiOnly) EndCTI()                {}

// The timing wrappers must satisfy exactly the optional interfaces of what
// they wrap: a hidden fast path leaves every output identical, so no
// output check would notice.
func TestWrappersForwardExactlyTheOptionalInterfaces(t *testing.T) {
	k := kernel.Generate(kernel.SmallConfig(kernelSeed))
	tm, err := trainModel(k, 1)
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.New(serve.NewRegistry(), serve.Config{Sync: true})
	defer srv.Close()
	preds := map[string]predictor.Predictor{
		"pic":     tm.Predictor(),
		"serve":   serve.NewClient(srv, ""),
		"allpos":  predictor.AllPos{},
		"coin":    predictor.FairCoin(1),
		"batch":   batchOnly{},
		"ctionly": ctiOnly{},
	}
	for name, p := range preds {
		if got, want := optional(wrapPredictor(p, newTracer())), optional(p); got != want {
			t.Errorf("predictor %s: wrapper implements %v, inner %v", name, got, want)
		}
	}
	execs := map[string]explore.Executor{
		"remote": serve.NewRemoteExecutor(k, serve.NewHTTPClient([]string{"http://127.0.0.1:1"}, 0)),
	}
	for _, name := range explore.Executors() {
		if name == "remote" {
			continue
		}
		ex, err := explore.NewExecutor(name, explore.Env{Kernel: k})
		if err != nil {
			t.Fatal(err)
		}
		execs[name] = ex
	}
	for name, ex := range execs {
		if got, want := optional(wrapExecutor(ex, newTracer())), optional(ex); got != want {
			t.Errorf("executor %s: wrapper implements %v, inner %v", name, got, want)
		}
	}
}

// The wrappers forward results unchanged and count what they time.
func TestWrappersForwardResults(t *testing.T) {
	k := kernel.Generate(kernel.SmallConfig(kernelSeed))
	ex := explore.DefaultExecutor(k)
	tr := newTracer()
	wex := wrapExecutor(ex, tr).(explore.HookedExecutor)
	e, err := newCampaignEnv(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := e.r.Stream(e.config(1, 1, nil))
	if err != nil {
		t.Fatal(err)
	}
	profs, err := e.r.ProfileAll(jobs, 1)
	if err != nil {
		t.Fatal(err)
	}
	sched := ski.NewSampler(profs[0].PA, profs[0].PB, 7).Next()
	want, err := ex.Execute(jobs[0].CTI, sched)
	if err != nil {
		t.Fatal(err)
	}
	for _, run := range []func() (*ski.Result, error){
		func() (*ski.Result, error) { return wex.Execute(jobs[0].CTI, sched) },
		func() (*ski.Result, error) { return wex.ExecuteSteps(jobs[0].CTI, sched, 0) },
		func() (*ski.Result, error) { return wex.ExecuteHooked(jobs[0].CTI, sched, 0, nil) },
	} {
		got, err := run()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatal("wrapped execution differs from the inner executor's")
		}
	}
	if tr.execs.Load() != 3 || tr.hooked.Load() != 1 || len(tr.durations("ski.exec")) != 3 {
		t.Fatalf("counted %d execs, %d hooked, %d spans", tr.execs.Load(), tr.hooked.Load(), len(tr.durations("ski.exec")))
	}
}

// Self time subtracts the union of the children's intervals, however
// they overlap, and only from their parent.
func TestSelfTime(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{Name: "plan", Parent: -1, Start: 0, End: 100},
		{Name: "score", Parent: 0, Start: 10, End: 30},
		{Name: "score", Parent: 0, Start: 20, End: 40},
		{Name: "score", Parent: 0, Start: 60, End: 70},
		{Name: "plan", Parent: -1, Start: 200, End: 250},
		{Name: "score", Parent: -1, Start: 200, End: 250},
	}
	if got, want := tr.selfTime("plan"), float64(100-40+50)/1e9; got != want {
		t.Fatalf("self time %v, want %v", got, want)
	}
	if got := covered(nil); got != 0 {
		t.Fatalf("empty union covers %d", got)
	}
}

// Nested driver spans parent the wrappers' leaf spans.
func TestSpanParents(t *testing.T) {
	tr := newTracer()
	outer := tr.begin("campaign.plan")
	inner := tr.begin("mlpct.plan")
	tr.leaf("pic.score", tr.now())
	tr.end(inner)
	tr.leaf("ski.exec", tr.now())
	tr.end(outer)
	parents := []int32{-1, 0, 1, 0}
	for i, s := range tr.spans {
		if s.Parent != parents[i] || s.End < s.Start {
			t.Fatalf("span %d (%s): parent %d, [%d, %d]", i, s.Name, s.Parent, s.Start, s.End)
		}
	}
}

// Each workload's reduced-scale checks pass: 1 and n workers agree, the
// phase-by-phase campaign equals Runner.Run, and the rebuilt learn loop
// equals trainer.Learn.
func TestReducedChecks(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models")
	}
	n := max(runtime.NumCPU(), 2)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			e, _, err := w.setup(1, n)
			if err != nil {
				t.Fatal(err)
			}
			if err := e.reduced(n); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// A traced run gives the untraced run's result.
func TestTracedRunMatchesUntraced(t *testing.T) {
	e, err := newCampaignEnv(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	e.ctis, e.small = 12, 4
	plain, err := e.run(nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	traced, err := e.run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if plain.fp != traced.fp {
		t.Fatal("traced campaign differs from the untraced one")
	}
	if got := traced.layers["ski.execs"].Value; got != float64(plain.execs) {
		t.Fatalf("executor wrapper counted %v execs, history has %d", got, plain.execs)
	}
}

// BENCHMARK.json's per-layer list is the one the traced run reports.
func TestBenchmarkJSONListsTheLayerMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the benchmark %d", len(spec.PerLayer), len(layerMetrics))
	}
	for i, m := range spec.PerLayer {
		if m.Name != layerMetrics[i].name || m.Unit != layerMetrics[i].unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %s (%s), the benchmark %s (%s)",
				i, m.Name, m.Unit, layerMetrics[i].name, layerMetrics[i].unit)
		}
	}
}

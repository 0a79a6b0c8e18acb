package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"runtime"

	"snowcat/internal/explore"
)

// fingerprint hashes a result's JSON encoding (map keys encode sorted and
// floats in their shortest exact form, so equal results hash equal).
func fingerprint(v any) string {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err) // the results are plain data; this is a benchmark bug
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// phases runs a traced run's phases as spans and takes each phase's
// runtime.MemStats delta outside its span. With a nil tracer it only
// calls the phase.
type phases struct {
	tr               *tracer
	ms               runtime.MemStats
	allocMB, mallocs map[string]float64
}

func newPhases(tr *tracer) *phases {
	return &phases{tr: tr, allocMB: map[string]float64{}, mallocs: map[string]float64{}}
}

func (p *phases) do(name string, f func() error) error {
	if p.tr == nil {
		return f()
	}
	runtime.ReadMemStats(&p.ms)
	alloc, mallocs := p.ms.TotalAlloc, p.ms.Mallocs
	id := p.tr.begin(name)
	err := f()
	p.tr.end(id)
	runtime.ReadMemStats(&p.ms)
	p.allocMB[name] += float64(p.ms.TotalAlloc-alloc) / 1e6
	p.mallocs[name] += float64(p.ms.Mallocs - mallocs)
	return err
}

// execLayers sets the ski and pic metrics the executor and predictor
// wrappers counted.
func execLayers(m metrics, tr *tracer) {
	execs := float64(tr.execs.Load())
	busy := tr.total("ski.exec")
	m.set("ski.exec_busy_s", busy, "s")
	m.set("ski.execs", execs, "count")
	m.set("ski.us_per_exec", perUnit(busy*1e6, execs), "us")
	m.set("ski.hooked_execs", float64(tr.hooked.Load()), "count")
	graphs := float64(tr.graphs.Load())
	score := tr.total("pic.score")
	m.set("pic.score_s", score, "s")
	m.set("pic.score_calls", float64(tr.scoreCalls.Load()), "count")
	m.set("pic.graphs", graphs, "count")
	m.set("pic.us_per_graph", perUnit(score*1e6, graphs), "us")
	m.set("pic.ctx_s", tr.total("pic.ctx"), "s")
}

// ledgerLayers splits the simulated clock by what it charged.
func ledgerLayers(m metrics, cost explore.CostModel, execs, infers int) {
	m.set("explore.exec_sim_h", float64(execs)*cost.ExecSeconds/3600, "h")
	m.set("explore.infer_sim_h", float64(infers)*cost.InferSeconds/3600, "h")
	m.set("explore.startup_sim_h", cost.StartupHours, "h")
}

// campaignLayers sets the phase metrics of a traced campaign run.
func campaignLayers(m metrics, tr *tracer, ph *phases) {
	m.set("syz.profile_s", tr.total("campaign.profile"), "s")
	m.set("campaign.execute_s", tr.total("campaign.execute"), "s")
	m.set("campaign.fold_s", tr.total("campaign.fold"), "s")
	for _, p := range []string{"profile", "plan", "execute", "fold"} {
		m.set("campaign."+p+"_alloc_mb", ph.allocMB["campaign."+p], "MB")
	}
	m.set("campaign.execute_mallocs", ph.mallocs["campaign.execute"], "count")
	m.set("campaign.fold_mallocs", ph.mallocs["campaign.fold"], "count")
}

func perUnit(x, n float64) float64 {
	if n == 0 {
		return 0
	}
	return x / n
}

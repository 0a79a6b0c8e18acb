package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"snowcat/internal/ctgraph"
	"snowcat/internal/explore"
	"snowcat/internal/kernel"
	"snowcat/internal/predictor"
	"snowcat/internal/ski"
)

// span is one timed call into a layer: its name, the span open on the
// driver goroutine when it started (-1 for none), and its start and end
// in nanoseconds since the tracer was created.
type span struct {
	Name   string `json:"name"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps the spans of one traced run in memory. Spans opened with
// begin/end nest on the driver goroutine (the one calling the library);
// leaf spans recorded by the wrappers may come from any pool worker and
// take the innermost open driver span as their parent, which is stable
// because the driver goroutine is blocked inside that call.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	stack []int32
	top   atomic.Int32

	execs, hooked, execErrs atomic.Int64
	scoreCalls, graphs      atomic.Int64
}

func newTracer() *tracer {
	tr := &tracer{t0: time.Now()}
	tr.top.Store(-1)
	return tr
}

func (tr *tracer) now() int64 { return int64(time.Since(tr.t0)) }

// begin opens a nested span on the driver goroutine.
func (tr *tracer) begin(name string) int32 {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	id := int32(len(tr.spans))
	tr.spans = append(tr.spans, span{Name: name, Parent: tr.top.Load(), Start: tr.now(), End: -1})
	tr.stack = append(tr.stack, id)
	tr.top.Store(id)
	return id
}

// end closes the innermost open span, which must be id.
func (tr *tracer) end(id int32) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.spans[id].End = tr.now()
	tr.stack = tr.stack[:len(tr.stack)-1]
	if n := len(tr.stack); n > 0 {
		tr.top.Store(tr.stack[n-1])
	} else {
		tr.top.Store(-1)
	}
}

// leaf records a finished span that started at start (see now).
func (tr *tracer) leaf(name string, start int64) {
	end := tr.now()
	parent := tr.top.Load()
	tr.mu.Lock()
	tr.spans = append(tr.spans, span{Name: name, Parent: parent, Start: start, End: end})
	tr.mu.Unlock()
}

// total sums the durations of every span with the given name, in seconds.
func (tr *tracer) total(name string) float64 {
	var ns int64
	for _, s := range tr.spans {
		if s.Name == name {
			ns += s.End - s.Start
		}
	}
	return float64(ns) / 1e9
}

// durations returns the duration of each span with the given name, in
// seconds, in start order.
func (tr *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range tr.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e9)
		}
	}
	return out
}

// selfTime sums, over every span with the given name, its duration minus
// the part of its interval that its child spans cover.
func (tr *tracer) selfTime(name string) float64 {
	children := make(map[int32][][2]int64)
	for _, s := range tr.spans {
		if s.Parent >= 0 && tr.spans[s.Parent].Name == name {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	var ns int64
	for i, s := range tr.spans {
		if s.Name != name {
			continue
		}
		ns += (s.End - s.Start) - covered(children[int32(i)])
	}
	return float64(ns) / 1e9
}

// covered returns the length of the union of the intervals.
func covered(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curS, curE int64
	open := false
	for _, x := range iv {
		if !open || x[0] > curE {
			if open {
				total += curE - curS
			}
			curS, curE, open = x[0], x[1], true
		} else if x[1] > curE {
			curE = x[1]
		}
	}
	if open {
		total += curE - curS
	}
	return total
}

// write stores the spans as JSON at path, creating its directory.
func (tr *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(tr.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timedExec times every call into the ski layer through an
// explore.Executor. wrapExecutor adds ExecuteHooked exactly when the
// inner executor has it, so the wrapper never hides or invents a fast
// path.
type timedExec struct {
	in explore.Executor
	tr *tracer
}

type timedHookedExec struct {
	timedExec
	hin explore.HookedExecutor
}

func wrapExecutor(in explore.Executor, tr *tracer) explore.Executor {
	t := timedExec{in: in, tr: tr}
	if h, ok := in.(explore.HookedExecutor); ok {
		return timedHookedExec{timedExec: t, hin: h}
	}
	return t
}

func (e timedExec) Name() string           { return e.in.Name() }
func (e timedExec) Kernel() *kernel.Kernel { return e.in.Kernel() }

func (e timedExec) done(start int64, err error) {
	e.tr.leaf("ski.exec", start)
	e.tr.execs.Add(1)
	if err != nil {
		e.tr.execErrs.Add(1)
	}
}

func (e timedExec) Execute(cti ski.CTI, sched ski.Schedule) (*ski.Result, error) {
	start := e.tr.now()
	res, err := e.in.Execute(cti, sched)
	e.done(start, err)
	return res, err
}

func (e timedExec) ExecuteSteps(cti ski.CTI, sched ski.Schedule, stepLimit int) (*ski.Result, error) {
	start := e.tr.now()
	res, err := e.in.ExecuteSteps(cti, sched, stepLimit)
	e.done(start, err)
	return res, err
}

func (e timedHookedExec) ExecuteHooked(cti ski.CTI, sched ski.Schedule, stepLimit int, hooks *ski.ExecHooks) (*ski.Result, error) {
	start := e.tr.now()
	res, err := e.hin.ExecuteHooked(cti, sched, stepLimit, hooks)
	e.done(start, err)
	e.tr.hooked.Add(1)
	return res, err
}

// timedPred times every call into the pic layer through a
// predictor.Predictor. wrapPredictor picks the variant that implements
// exactly the optional interfaces (BatchScorer, CTIScorer) of the inner
// predictor: hiding one leaves the scores identical but silently drops a
// fast path, which no output check can see.
type timedPred struct {
	in predictor.Predictor
	tr *tracer
}

type timedBatch struct{ timedPred }
type timedCTI struct{ timedPred }
type timedBatchCTI struct{ timedPred }

func wrapPredictor(in predictor.Predictor, tr *tracer) predictor.Predictor {
	t := timedPred{in: in, tr: tr}
	_, batch := in.(predictor.BatchScorer)
	_, cti := in.(predictor.CTIScorer)
	switch {
	case batch && cti:
		return timedBatchCTI{t}
	case batch:
		return timedBatch{t}
	case cti:
		return timedCTI{t}
	}
	return t
}

func (p timedPred) Threshold() float64 { return p.in.Threshold() }
func (p timedPred) Name() string       { return p.in.Name() }

func (p timedPred) Score(g *ctgraph.Graph) []float64 {
	start := p.tr.now()
	out := p.in.Score(g)
	p.tr.leaf("pic.score", start)
	p.tr.scoreCalls.Add(1)
	p.tr.graphs.Add(1)
	return out
}

func (p timedPred) scoreBatch(gs []*ctgraph.Graph, workers int) [][]float64 {
	start := p.tr.now()
	out := p.in.(predictor.BatchScorer).ScoreBatch(gs, workers)
	p.tr.leaf("pic.score", start)
	p.tr.scoreCalls.Add(1)
	p.tr.graphs.Add(int64(len(gs)))
	return out
}

func (p timedPred) beginCTI(base *ctgraph.Base) {
	start := p.tr.now()
	p.in.(predictor.CTIScorer).BeginCTI(base)
	p.tr.leaf("pic.ctx", start)
}

func (p timedPred) endCTI() { p.in.(predictor.CTIScorer).EndCTI() }

func (p timedBatch) ScoreBatch(gs []*ctgraph.Graph, w int) [][]float64    { return p.scoreBatch(gs, w) }
func (p timedCTI) BeginCTI(base *ctgraph.Base)                            { p.beginCTI(base) }
func (p timedCTI) EndCTI()                                                { p.endCTI() }
func (p timedBatchCTI) ScoreBatch(gs []*ctgraph.Graph, w int) [][]float64 { return p.scoreBatch(gs, w) }
func (p timedBatchCTI) BeginCTI(base *ctgraph.Base)                       { p.beginCTI(base) }
func (p timedBatchCTI) EndCTI()                                           { p.endCTI() }

// Package strategy implements the §3.3 test-candidate selection strategies
// that turn predicted coverage into an execute/skip decision:
//
//	S1 — execute when the predicted positive-block *set* is new;
//	S2 — execute when at least one predicted-positive block is new;
//	S3 — execute when some predicted-positive block has been attempted
//	     fewer than a trial limit.
//
// Each strategy remembers what it has selected so far, so a long-running
// campaign converges to executing only genuinely novel candidates.
package strategy

import (
	"fmt"

	"snowcat/internal/ctgraph"
)

// Prediction is a predictor's output for one CT graph: thresholded labels
// plus the raw per-vertex probabilities and the decision threshold that
// produced the labels (needed by margin-based strategies like S4).
type Prediction struct {
	Labels    []bool
	Scores    []float64
	Threshold float64
}

// FromScores packages raw predictor scores for the selection strategies:
// labels are the scores thresholded at th.
func FromScores(scores []float64, th float64) Prediction {
	labels := make([]bool, len(scores))
	for i, s := range scores {
		labels[i] = s >= th
	}
	return Prediction{Labels: labels, Scores: scores, Threshold: th}
}

// Strategy judges whether a candidate CT's predicted coverage is worth a
// dynamic execution. Interesting must not keep g: MLPCT recycles the
// graphs of rejected candidates into later builds. Commit sees only
// accepted graphs, which are never recycled.
type Strategy interface {
	// Interesting reports whether the prediction warrants execution,
	// without recording anything.
	Interesting(g *ctgraph.Graph, p Prediction) bool
	// Commit records a selected candidate's prediction so future
	// candidates are judged against it.
	Commit(g *ctgraph.Graph, p Prediction)
	// Name identifies the strategy (S1/S2/S3).
	Name() string
	// Reset clears the memory.
	Reset()
	// Save snapshots the memory without mutating it, for a campaign
	// checkpoint or a round rollback.
	Save() State
	// Load replaces the memory wholesale with a snapshot of the same
	// strategy kind.
	Load(State) error
}

// Select is the common check-then-record step: it commits and returns true
// when the candidate is interesting.
func Select(s Strategy, g *ctgraph.Graph, p Prediction) bool {
	if !s.Interesting(g, p) {
		return false
	}
	s.Commit(g, p)
	return true
}

// s1Levels quantises prediction scores for the S1 signature. The paper's
// bitmap is a ~9.7K-dimensional boolean vector, so nearly every schedule
// produces a distinct bitmap; at this reproduction's ~100-vertex graph
// scale the boolean bitmap is too coarse, and the scale-equivalent
// signature additionally quantises the predicted probabilities (see
// DESIGN.md §5).
const s1Levels = 6

// bitmapKey hashes the S1 coverage signature: the per-vertex block ID with
// its quantised score (FNV-1a).
func bitmapKey(g *ctgraph.Graph, p Prediction) uint64 {
	h := uint64(1469598103934665603)
	mix := func(v uint64) {
		h ^= v
		h *= 1099511628211
	}
	for i, v := range g.Vertices {
		q := uint64(0)
		if len(p.Scores) > i {
			q = uint64(p.Scores[i] * s1Levels)
			if q >= s1Levels {
				q = s1Levels - 1
			}
		} else if p.Labels[i] {
			q = s1Levels - 1
		}
		mix(uint64(uint32(v.Block)))
		mix(q)
	}
	return h
}

// S1 selects candidates whose predicted coverage bitmap is new: a new
// combination of covered blocks signals a control-flow change even when no
// individual block is new.
type S1 struct {
	seen map[uint64]bool
}

// NewS1 returns an empty S1 strategy.
func NewS1() *S1 { return &S1{seen: make(map[uint64]bool)} }

func (s *S1) Interesting(g *ctgraph.Graph, p Prediction) bool {
	return !s.seen[bitmapKey(g, p)]
}

func (s *S1) Commit(g *ctgraph.Graph, p Prediction) {
	s.seen[bitmapKey(g, p)] = true
}

func (s *S1) Name() string { return "S1" }
func (s *S1) Reset()       { s.seen = make(map[uint64]bool) }

// S2 selects candidates predicted to cover at least one block never
// predicted-covered by a previously selected candidate.
type S2 struct {
	seen map[int32]bool
}

// NewS2 returns an empty S2 strategy.
func NewS2() *S2 { return &S2{seen: make(map[int32]bool)} }

func (s *S2) Interesting(g *ctgraph.Graph, p Prediction) bool {
	for i, pos := range p.Labels {
		if pos && !s.seen[g.Vertices[i].Block] {
			return true
		}
	}
	return false
}

func (s *S2) Commit(g *ctgraph.Graph, p Prediction) {
	for i, pos := range p.Labels {
		if pos {
			s.seen[g.Vertices[i].Block] = true
		}
	}
}

func (s *S2) Name() string { return "S2" }
func (s *S2) Reset()       { s.seen = make(map[int32]bool) }

// S3 limits how many times each predicted-positive block may be attempted:
// more than one trial lets a block be exercised under different calling
// contexts, while the cap stops the campaign from chasing persistent model
// false positives.
type S3 struct {
	Limit  int
	trials map[int32]int
}

// NewS3 returns an S3 strategy with the given per-block trial limit.
func NewS3(limit int) *S3 {
	if limit < 1 {
		limit = 1
	}
	return &S3{Limit: limit, trials: make(map[int32]int)}
}

func (s *S3) Interesting(g *ctgraph.Graph, p Prediction) bool {
	for i, pos := range p.Labels {
		if pos && s.trials[g.Vertices[i].Block] < s.Limit {
			return true
		}
	}
	return false
}

func (s *S3) Commit(g *ctgraph.Graph, p Prediction) {
	for i, pos := range p.Labels {
		if pos {
			s.trials[g.Vertices[i].Block]++
		}
	}
}

func (s *S3) Name() string { return fmt.Sprintf("S3(limit=%d)", s.Limit) }
func (s *S3) Reset()       { s.trials = make(map[int32]int) }

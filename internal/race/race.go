// Package race detects potential data races in concurrent execution traces.
//
// It stands in for the DataCollider-style detector the paper runs inside
// SKI (§5.3). DataCollider detects a race by pausing one access and
// observing whether another thread touches the same address *during the
// pause* — detection is temporal, not purely lockset-based. This detector
// mirrors that: two memory accesses constitute a potential data race when
// they come from different threads, touch the same address, at least one
// is a write, the threads hold no common lock, and the accesses fall
// within a bounded window of the interleaved execution order. The window
// makes race discovery schedule-dependent, exactly the property that lets
// schedule selection matter (§5.3). Races are keyed by the unordered pair
// of static racing instructions, matching the paper's "unique possible
// data races" metric — the same race found under many schedules counts
// once.
package race

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"sync"

	"snowcat/internal/sim"
	"snowcat/internal/ski"
	"snowcat/internal/syz"
)

// Race is one potential data race: the two racing static instructions and
// the shared address they collide on. A is always the lexically smaller
// reference so that the pair is canonical.
type Race struct {
	A, B sim.InstrRef
	Addr int32
}

// Key returns the canonical identity of the race.
func (r Race) Key() string {
	return fmt.Sprintf("%s|%s|g%d", r.A, r.B, r.Addr)
}

func (r Race) String() string {
	return fmt.Sprintf("race{%s <-> %s on g%d}", r.A, r.B, r.Addr)
}

func refLess(a, b sim.InstrRef) bool {
	if a.Block != b.Block {
		return a.Block < b.Block
	}
	return a.Idx < b.Idx
}

func canonical(a, b sim.InstrRef, addr int32) Race {
	if refLess(b, a) {
		a, b = b, a
	}
	return Race{A: a, B: b, Addr: addr}
}

// DefaultWindow is the detection window in interleaved instruction steps:
// the DataCollider-pause equivalent. Conflicting accesses further apart
// than this in the global order are not considered temporally overlapping.
const DefaultWindow = 80

// Detect scans the two threads' access traces of a concurrent execution
// and returns the unique potential races under the default window, in
// deterministic order.
func Detect(res *ski.Result) []Race { return DetectWindow(res, DefaultWindow) }

// DetectWindow is Detect with an explicit proximity window (in global
// interleaving steps); window <= 0 means unbounded (pure lockset
// detection). The returned slice is the caller's and exactly sized; it is
// nil when the execution has no race.
func DetectWindow(res *ski.Result, window int) []Race {
	sc := detectPool.Get().(*detectScratch)
	defer sc.release()
	// Bucket thread-0 accesses by address to avoid the full cross product.
	for _, a := range res.Accesses[0] {
		sc.add(a)
	}
	for _, b := range res.Accesses[1] {
		bi, ok := sc.index[b.Addr]
		if !ok {
			continue
		}
		for _, a := range sc.buckets[bi] {
			if !a.Write && !b.Write {
				continue // read-read never races
			}
			if a.Lockset&b.Lockset != 0 {
				continue // common lock orders the accesses
			}
			if window > 0 {
				d := a.Step - b.Step
				if d < 0 {
					d = -d
				}
				if d > window {
					continue // not temporally overlapping
				}
			}
			r := canonical(a.Ref, b.Ref, b.Addr)
			if _, dup := sc.seen[r]; !dup {
				sc.seen[r] = struct{}{}
				sc.out = append(sc.out, r)
			}
		}
	}
	if len(sc.out) == 0 {
		return nil
	}
	slices.SortFunc(sc.out, func(x, y Race) int {
		return cmp.Or(
			cmp.Compare(x.A.Block, y.A.Block), cmp.Compare(x.A.Idx, y.A.Idx),
			cmp.Compare(x.B.Block, y.B.Block), cmp.Compare(x.B.Idx, y.B.Idx),
			cmp.Compare(x.Addr, y.Addr))
	})
	out := make([]Race, len(sc.out))
	copy(out, sc.out)
	return out
}

// detectScratch is DetectWindow's working state, recycled through
// detectPool: thread-0 accesses bucketed by address, the dedupe set and
// the unsorted output. Buckets keep their capacity between executions.
type detectScratch struct {
	index   map[int32]int // address -> bucket
	buckets [][]syz.Access
	used    int // buckets in use by the current execution
	seen    map[Race]struct{}
	out     []Race
}

var detectPool = sync.Pool{New: func() any {
	return &detectScratch{index: make(map[int32]int), seen: make(map[Race]struct{})}
}}

func (sc *detectScratch) add(a syz.Access) {
	bi, ok := sc.index[a.Addr]
	if !ok {
		bi = sc.used
		sc.used++
		if bi == len(sc.buckets) {
			sc.buckets = append(sc.buckets, nil)
		}
		sc.buckets[bi] = sc.buckets[bi][:0]
		sc.index[a.Addr] = bi
	}
	sc.buckets[bi] = append(sc.buckets[bi], a)
}

func (sc *detectScratch) release() {
	clear(sc.index)
	sc.used = 0
	clear(sc.seen)
	sc.out = sc.out[:0]
	detectPool.Put(sc)
}

// Set accumulates unique races across many executions, the cumulative
// "data-race-coverage" metric of §5.3.
type Set struct {
	m map[Race]struct{}
}

// NewSet returns an empty cumulative race set.
func NewSet() *Set { return &Set{m: make(map[Race]struct{})} }

// Add inserts the races and returns how many were new.
func (s *Set) Add(races []Race) int {
	n := 0
	for _, r := range races {
		if _, ok := s.m[r]; !ok {
			s.m[r] = struct{}{}
			n++
		}
	}
	return n
}

// Size returns the number of unique races seen so far.
func (s *Set) Size() int { return len(s.m) }

// Has reports whether an equivalent race is already in the set.
func (s *Set) Has(r Race) bool {
	_, ok := s.m[r]
	return ok
}

// Races returns all unique races in deterministic order: ascending Key.
func (s *Set) Races() []Race {
	type keyed struct {
		key string
		r   Race
	}
	ks := make([]keyed, 0, len(s.m))
	for r := range s.m {
		ks = append(ks, keyed{r.Key(), r})
	}
	slices.SortFunc(ks, func(x, y keyed) int { return strings.Compare(x.key, y.key) })
	out := make([]Race, len(ks))
	for i, k := range ks {
		out[i] = k.r
	}
	return out
}

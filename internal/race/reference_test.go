package race

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"snowcat/internal/kernel"
	"snowcat/internal/parallel"
	"snowcat/internal/sim"
	"snowcat/internal/ski"
	"snowcat/internal/syz"
	"snowcat/internal/xrand"
)

// refDetectWindow is a verbatim copy of the string-keyed DetectWindow the
// struct-keyed detector replaced; the pins below hold the two to the same
// output, order included.
func refDetectWindow(res *ski.Result, window int) []Race {
	// Bucket thread-0 accesses by address to avoid the full cross product.
	byAddr := make(map[int32][]syz.Access)
	for _, a := range res.Accesses[0] {
		byAddr[a.Addr] = append(byAddr[a.Addr], a)
	}
	seen := make(map[string]bool)
	var out []Race
	for _, b := range res.Accesses[1] {
		for _, a := range byAddr[b.Addr] {
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
			if k := r.Key(); !seen[k] {
				seen[k] = true
				out = append(out, r)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return refLess(out[i].A, out[j].A)
		}
		if out[i].B != out[j].B {
			return refLess(out[i].B, out[j].B)
		}
		return out[i].Addr < out[j].Addr
	})
	return out
}

// refSet is a verbatim copy of the string-keyed Set.
type refSet struct {
	m map[string]Race
}

func newRefSet() *refSet { return &refSet{m: make(map[string]Race)} }

func (s *refSet) Add(races []Race) int {
	n := 0
	for _, r := range races {
		k := r.Key()
		if _, ok := s.m[k]; !ok {
			s.m[k] = r
			n++
		}
	}
	return n
}

func (s *refSet) Size() int { return len(s.m) }

func (s *refSet) Has(r Race) bool {
	_, ok := s.m[r.Key()]
	return ok
}

func (s *refSet) Races() []Race {
	out := make([]Race, 0, len(s.m))
	for _, r := range s.m {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key() < out[j].Key() })
	return out
}

var pinnedWindows = []int{0, DefaultWindow}

// pinTrace checks DetectWindow against the reference on one trace at
// every pinned window, feeding both outputs into the two sets.
func pinTrace(t *testing.T, label string, res *ski.Result, set *Set, ref *refSet) {
	t.Helper()
	for _, w := range pinnedWindows {
		want := refDetectWindow(res, w)
		got := DetectWindow(res, w)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s window %d: DetectWindow = %v, reference %v", label, w, got, want)
		}
		if len(got) != cap(got) {
			t.Fatalf("%s window %d: result len %d cap %d", label, w, len(got), cap(got))
		}
		if n, wn := set.Add(got), ref.Add(want); n != wn {
			t.Fatalf("%s window %d: Set.Add = %d new, reference %d", label, w, n, wn)
		}
	}
}

// pinSets checks the two cumulative sets agree on size, membership and
// Races() order.
func pinSets(t *testing.T, set *Set, ref *refSet) {
	t.Helper()
	if set.Size() != ref.Size() {
		t.Fatalf("Set.Size = %d, reference %d", set.Size(), ref.Size())
	}
	got, want := set.Races(), ref.Races()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Set.Races diverged from the reference's key order")
	}
	for _, r := range want {
		if !set.Has(r) {
			t.Fatalf("Set.Has(%v) = false", r)
		}
		miss := r
		miss.Addr = -1 - miss.Addr
		if set.Has(miss) != ref.Has(miss) {
			t.Fatalf("Set.Has(%v) disagrees with the reference", miss)
		}
	}
}

// randomTrace draws a two-thread access trace over few addresses, refs
// and locks, so collisions, duplicates and lock suppression are common.
func randomTrace(rng *xrand.RNG) *ski.Result {
	res := &ski.Result{}
	step := 0
	for i, n := 0, rng.Intn(120); i < n; i++ {
		step += rng.Intn(30) + 1
		th := rng.Intn(2)
		res.Accesses[th] = append(res.Accesses[th], syz.Access{
			Ref:     sim.InstrRef{Block: int32(rng.Intn(40)) - 2, Idx: int32(rng.Intn(5))},
			Write:   rng.Intn(3) == 0,
			Addr:    int32(rng.Intn(12)) - 1,
			Lockset: uint64(rng.Intn(8)),
			Step:    step,
		})
	}
	return res
}

// TestDetectMatchesStringKeyedReference pins the struct-keyed detector and
// set to the string-keyed originals on random traces.
func TestDetectMatchesStringKeyedReference(t *testing.T) {
	set, ref := NewSet(), newRefSet()
	f := func(seed uint64) bool {
		pinTrace(t, "random", randomTrace(xrand.New(seed)), set, ref)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	pinTrace(t, "empty", &ski.Result{}, set, ref)
	pinSets(t, set, ref)
	if set.Size() == 0 {
		t.Fatal("random traces produced no race")
	}
}

// TestSetMatchesStringKeyedReference pins the detector and set to the
// originals on recorded traces — sampled schedules of generated CTIs —
// first in order, then from 8 goroutines sharing the detector's pool.
func TestSetMatchesStringKeyedReference(t *testing.T) {
	set, ref := NewSet(), newRefSet()
	pinSets(t, set, ref) // empty sets agree too
	var recorded []*ski.Result
	for _, seed := range []uint64{7, 8} {
		k := kernel.Generate(kernel.SmallConfig(seed))
		gen := syz.NewGenerator(k, seed+100)
		for c := 0; c < 6; c++ {
			cti := ski.CTI{ID: int64(c), A: gen.Generate(), B: gen.Generate()}
			pa, err := syz.Run(k, cti.A)
			if err != nil {
				t.Fatal(err)
			}
			pb, err := syz.Run(k, cti.B)
			if err != nil {
				t.Fatal(err)
			}
			s := ski.NewSampler(pa, pb, seed*10+uint64(c))
			for i := 0; i < 8; i++ {
				res, err := ski.Execute(k, cti, s.NextD(1+i%3))
				if err != nil {
					t.Fatal(err)
				}
				pinTrace(t, "recorded", res, set, ref)
				recorded = append(recorded, res)
			}
		}
	}
	pinSets(t, set, ref)
	if set.Size() == 0 {
		t.Fatal("recorded traces produced no race")
	}
	err := parallel.ForEach(8, len(recorded), func(i int) error {
		for _, w := range pinnedWindows {
			if !reflect.DeepEqual(DetectWindow(recorded[i], w), refDetectWindow(recorded[i], w)) {
				return fmt.Errorf("trace %d window %d: concurrent DetectWindow diverged", i, w)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

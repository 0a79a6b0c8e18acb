package ctgraph

import (
	"encoding/binary"
	"reflect"
	"sync"
	"testing"

	"snowcat/internal/cfg"
	"snowcat/internal/kernel"
	"snowcat/internal/sim"
	"snowcat/internal/ski"
	"snowcat/internal/syz"
)

// fuzzFixture caches the kernel, builder and profiled CTI the fuzz target
// builds graphs for; construction is expensive relative to one build.
var fuzzFixture struct {
	once    sync.Once
	err     error
	builder *Builder
	cti     ski.CTI
	pa, pb  *syz.Profile
}

func loadFuzzFixture(tb testing.TB) (*Builder, ski.CTI, *syz.Profile, *syz.Profile) {
	fuzzFixture.once.Do(func() {
		k := kernel.Generate(kernel.SmallConfig(27))
		gen := syz.NewGenerator(k, 28)
		a, b := gen.Generate(), gen.Generate()
		pa, err := syz.Run(k, a)
		if err != nil {
			fuzzFixture.err = err
			return
		}
		pb, err := syz.Run(k, b)
		if err != nil {
			fuzzFixture.err = err
			return
		}
		fuzzFixture.builder = NewBuilder(k, cfg.Build(k))
		fuzzFixture.cti = ski.CTI{ID: 1, A: a, B: b}
		fuzzFixture.pa, fuzzFixture.pb = pa, pb
	})
	if fuzzFixture.err != nil {
		tb.Fatal(fuzzFixture.err)
	}
	return fuzzFixture.builder, fuzzFixture.cti, fuzzFixture.pa, fuzzFixture.pb
}

// fuzzSchedule derives an arbitrary (possibly never-firing) schedule from
// raw bytes, mixing in real trace refs so switch vertices actually appear.
func fuzzSchedule(data []byte, pa, pb *syz.Profile) ski.Schedule {
	var s ski.Schedule
	profs := [2]*syz.Profile{pa, pb}
	for off := 0; off+5 <= len(data) && len(s.Hints) < 4; off += 5 {
		thread := int32(data[off] % 2)
		raw := int32(binary.LittleEndian.Uint32(data[off+1 : off+5]))
		ref := sim.InstrRef{Block: raw, Idx: raw % 3}
		if trace := profs[thread].InstrTrace; data[off]%2 == 0 && len(trace) > 0 {
			ref = trace[int(uint32(raw))%len(trace)]
		}
		s.Hints = append(s.Hints, ski.Hint{Thread: thread, Ref: ref})
	}
	return s
}

// FuzzCTGraphBuild pins the Base/WithSchedule split against the monolithic
// Build for arbitrary schedules: both constructions must agree bit for bit,
// and neither may panic on hostile switch refs. A third build goes into a
// released graph of another base that held a different schedule (derived
// from the input's second half) and must agree too.
func FuzzCTGraphBuild(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 7, 0, 0, 0})
	f.Add([]byte{1, 255, 255, 255, 255, 0, 3, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		builder, cti, pa, pb := loadFuzzFixture(t)
		sched := fuzzSchedule(data, pa, pb)
		mono := builder.Build(cti, pa, pb, sched)
		split := builder.BuildBase(cti, pa, pb).WithSchedule(sched)
		if !reflect.DeepEqual(mono, split) {
			t.Fatalf("Base+WithSchedule diverges from Build for schedule %q", sched.Key())
		}
		old := builder.BuildBase(cti, pa, pb).WithSchedule(fuzzSchedule(data[len(data)/2:], pa, pb))
		if got := recycle(builder.BuildBase(cti, pa, pb), old, sched); !reflect.DeepEqual(mono, got) {
			t.Fatalf("a recycled graph diverges from Build for schedule %q", sched.Key())
		}
	})
}

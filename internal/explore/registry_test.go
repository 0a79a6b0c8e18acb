package explore

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"snowcat/internal/kernel"
	"snowcat/internal/ski"
	"snowcat/internal/syz"
)

// TestExecutorsLists pins the shipped in-process backend: the explore
// package itself registers interp (remote joins from serve's init, which
// this package does not link), sorted by name.
func TestExecutorsLists(t *testing.T) {
	names := Executors()
	has := map[string]bool{}
	for _, n := range names {
		has[n] = true
	}
	if !has["interp"] {
		t.Fatalf("Executors() = %v, want interp registered", names)
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("Executors() = %v not sorted", names)
		}
	}
}

// TestNewExecutorUnknown pins the lookup error contract: it wraps
// ErrUnknownBackend and names both the requested backend and the
// registered alternatives.
func TestNewExecutorUnknown(t *testing.T) {
	_, err := NewExecutor("warp-drive", Env{})
	if !errors.Is(err, ErrUnknownBackend) {
		t.Fatalf("error %v does not wrap ErrUnknownBackend", err)
	}
	msg := err.Error()
	if !strings.Contains(msg, `"warp-drive"`) || !strings.Contains(msg, "interp") {
		t.Fatalf("error %q must name the requested backend and the registered ones", msg)
	}
}

// TestRegisterExecutorDuplicatePanics pins registry hygiene: a second
// registration under a taken name is a programming error and the panic
// message carries the conflicting name.
func TestRegisterExecutorDuplicatePanics(t *testing.T) {
	nop := func(Env) (Executor, error) { return nil, errors.New("unused") }
	RegisterExecutor("dup-probe", nop)
	defer func() {
		rec := recover()
		if rec == nil {
			t.Fatal("duplicate registration did not panic")
		}
		if msg, ok := rec.(string); !ok || !strings.Contains(msg, "dup-probe") {
			t.Fatalf("panic %v does not name the conflicting backend", rec)
		}
	}()
	RegisterExecutor("dup-probe", nop)
}

// TestRegisterExecutorRejectsBadArgs pins the empty-name and nil-factory
// guards.
func TestRegisterExecutorRejectsBadArgs(t *testing.T) {
	for _, tc := range []struct {
		name string
		f    ExecutorFactory
	}{
		{"", func(Env) (Executor, error) { return nil, nil }},
		{"nil-factory-probe", nil},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("RegisterExecutor(%q, %v) did not panic", tc.name, tc.f)
				}
			}()
			RegisterExecutor(tc.name, tc.f)
		}()
	}
}

// TestBuiltinFactoriesRequireKernel pins that the in-process backend
// rejects an environment without a kernel instead of deferring the nil
// dereference to execution time.
func TestBuiltinFactoriesRequireKernel(t *testing.T) {
	if _, err := NewExecutor("interp", Env{}); err == nil {
		t.Fatal("executor interp accepted an Env without a kernel")
	}
}

// TestBackendsExecuteIdentically is the registry-level parity pin: the
// in-process backend resolved by name returns results DeepEqual to
// ski.Execute over a shared schedule stream, reports its registered name,
// and hands back the kernel it executes.
func TestBackendsExecuteIdentically(t *testing.T) {
	k := kernel.Generate(kernel.SmallConfig(91))
	gen := syz.NewGenerator(k, 92)
	cti := ski.CTI{ID: 5, A: gen.Generate(), B: gen.Generate()}
	pa, err := syz.Run(k, cti.A)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := syz.Run(k, cti.B)
	if err != nil {
		t.Fatal(err)
	}
	sampler := ski.NewSampler(pa, pb, 93)
	scheds := make([]ski.Schedule, 8)
	for i := range scheds {
		scheds[i] = sampler.Next()
	}

	interp := DefaultExecutor(k)
	if interp.Name() != "interp" {
		t.Fatalf("DefaultExecutor name %q, want interp", interp.Name())
	}
	ex, err := NewExecutor("interp", Env{Kernel: k})
	if err != nil {
		t.Fatal(err)
	}
	if ex.Name() != "interp" {
		t.Fatalf("executor interp reports name %q", ex.Name())
	}
	if ex.Kernel() != k {
		t.Fatal("executor interp does not return its kernel")
	}
	for i, sched := range scheds {
		want, err := ski.Execute(k, cti, sched)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ex.Execute(cti, sched)
		if err != nil {
			t.Fatalf("schedule %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("schedule %d diverged from ski.Execute", i)
		}
	}
}

package explore

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"snowcat/internal/kernel"
	"snowcat/internal/ski"
)

// Executor is the pipeline's execution backend: it runs one (CTI, schedule)
// pair and reports everything the fold needs — coverage, the access trace
// race detection reads, bug hits — as a *ski.Result. Implementations are
// bound to one kernel at construction and must be safe for concurrent use
// from pool workers; every registered backend is pinned DeepEqual to the
// interpreter on all inputs, which is what lets campaign Histories survive
// a backend swap bit for bit.
//
// Every returned *ski.Result belongs to the caller: nothing aliases it —
// no executor scratch, no other result, no other field of itself — and
// its Accesses logs are never nil. The local interp backend also sizes
// every slice exactly (capacity equals length; see ski.Result); the remote
// one decodes each field into its own array.
type Executor interface {
	// Name is the backend's registry name.
	Name() string
	// Kernel returns the kernel the executor is bound to (the fault layer
	// validates results against it).
	Kernel() *kernel.Kernel
	// Execute runs one schedule to completion.
	Execute(cti ski.CTI, sched ski.Schedule) (*ski.Result, error)
	// ExecuteSteps is Execute with a per-execution step budget;
	// stepLimit <= 0 keeps the global bound.
	ExecuteSteps(cti ski.CTI, sched ski.Schedule, stepLimit int) (*ski.Result, error)
}

// HookedExecutor is the optional executor extension for in-run
// schedule-point hooks (ski.ExecHooks). The local interp backend
// implements it; remote backends do not — callbacks cannot cross the wire —
// so consumers type-assert and fall back to pre-planned schedules when the
// assertion fails (amplify's mid-run mode does exactly this).
type HookedExecutor interface {
	Executor
	// ExecuteHooked is ExecuteSteps with hooks evaluated at block
	// boundaries; nil hooks is bit-identical to ExecuteSteps.
	ExecuteHooked(cti ski.CTI, sched ski.Schedule, stepLimit int, hooks *ski.ExecHooks) (*ski.Result, error)
}

// Env carries everything an executor factory may need. The local interp
// backend uses only Kernel; the remote backend additionally needs the shard URLs (and
// optionally the ring's virtual-node count).
type Env struct {
	// Kernel is the kernel executions run against. Required by every
	// shipped backend.
	Kernel *kernel.Kernel
	// URLs are the shard base URLs of a remote fleet ("http://host:port"),
	// consistent-hash routed by CTI ID. Required by the remote backend,
	// ignored by local ones.
	URLs []string
	// Replicas is the routing ring's virtual-node count per shard;
	// <= 0 selects the serve default. Remote backend only.
	Replicas int
	// StepLimit caps remote executions server-side when an explicit
	// ExecuteSteps budget is not given; <= 0 keeps the global bound.
	StepLimit int
}

// ExecutorFactory builds an executor from an environment.
type ExecutorFactory func(Env) (Executor, error)

// ErrUnknownBackend reports a registry lookup for a name nothing registered
// under. Lookup errors wrap it together with the requested name, so callers
// errors.Is against the sentinel and print the error for the detail.
var ErrUnknownBackend = errors.New("unknown backend")

var executorReg = struct {
	sync.Mutex
	factories map[string]ExecutorFactory
}{factories: make(map[string]ExecutorFactory)}

// RegisterExecutor adds a named executor backend. Registration happens in
// package init functions (importing a backend's package is what makes it
// available), so a duplicate name is a programming error and panics with
// the conflicting name.
func RegisterExecutor(name string, f ExecutorFactory) {
	if name == "" || f == nil {
		panic("explore: RegisterExecutor with empty name or nil factory")
	}
	executorReg.Lock()
	defer executorReg.Unlock()
	if _, dup := executorReg.factories[name]; dup {
		panic(fmt.Sprintf("explore: executor %q registered twice", name))
	}
	executorReg.factories[name] = f
}

// NewExecutor builds the named backend. An unregistered name returns an
// error wrapping ErrUnknownBackend with the requested name and the
// registered alternatives.
func NewExecutor(name string, env Env) (Executor, error) {
	executorReg.Lock()
	f := executorReg.factories[name]
	executorReg.Unlock()
	if f == nil {
		return nil, fmt.Errorf("explore: %w: executor %q (registered: %v)",
			ErrUnknownBackend, name, Executors())
	}
	return f(env)
}

// Executors lists the registered backend names, sorted.
func Executors() []string {
	executorReg.Lock()
	defer executorReg.Unlock()
	names := make([]string, 0, len(executorReg.factories))
	for name := range executorReg.factories {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// DefaultExecutor returns the interpreter backend bound to k — what every
// consumer uses when no executor is configured, keeping zero-value configs
// bit-identical to the pre-registry pipeline.
func DefaultExecutor(k *kernel.Kernel) Executor {
	ex, err := NewExecutor("interp", Env{Kernel: k})
	if err != nil {
		panic(err) // interp registers below; reaching this is a build bug
	}
	return ex
}

func init() {
	RegisterExecutor("interp", func(env Env) (Executor, error) {
		if env.Kernel == nil {
			return nil, fmt.Errorf("explore: executor interp: Env.Kernel is required")
		}
		return interpExecutor{k: env.Kernel}, nil
	})
}

// interpExecutor is the interpreter backend: today's ski.Execute.
type interpExecutor struct {
	k *kernel.Kernel
}

func (e interpExecutor) Name() string           { return "interp" }
func (e interpExecutor) Kernel() *kernel.Kernel { return e.k }

func (e interpExecutor) Execute(cti ski.CTI, sched ski.Schedule) (*ski.Result, error) {
	return ski.Execute(e.k, cti, sched)
}

func (e interpExecutor) ExecuteSteps(cti ski.CTI, sched ski.Schedule, stepLimit int) (*ski.Result, error) {
	return ski.ExecuteSteps(e.k, cti, sched, stepLimit)
}

func (e interpExecutor) ExecuteHooked(cti ski.CTI, sched ski.Schedule, stepLimit int, hooks *ski.ExecHooks) (*ski.Result, error) {
	return ski.ExecuteHooked(e.k, cti, sched, stepLimit, hooks)
}

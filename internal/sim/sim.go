// Package sim implements the deterministic interpreter for the synthetic
// kernel ISA.
//
// It is the execution substrate underneath both the sequential profiler
// (package syz) and the SKI-style concurrent executor (package ski). The
// interpreter steps one instruction at a time so that a scheduler can
// interleave threads at instruction granularity, exactly the control SKI
// obtains by instrumenting QEMU. Each step reports what happened — block
// entry, memory access with the current lockset, lock transitions, planted
// bug hits — giving the tracer everything the coverage collector and the
// data-race detector need.
package sim

import (
	"fmt"
	"slices"

	"snowcat/internal/kasm"
	"snowcat/internal/kernel"
)

// Call is one syscall invocation within a sequential test input.
type Call struct {
	Syscall int32
	Args    []int64
}

// InstrRef identifies a static instruction: a block and an index within it.
type InstrRef struct {
	Block int32
	Idx   int32
}

// Valid reports whether the reference points at a real instruction of k.
func (r InstrRef) Valid(k *kernel.Kernel) bool {
	b := k.Block(r.Block)
	return b != nil && r.Idx >= 0 && int(r.Idx) < len(b.Instrs)
}

func (r InstrRef) String() string { return fmt.Sprintf("b%d:%d", r.Block, r.Idx) }

// ThreadState describes what a thread can do next.
type ThreadState uint8

const (
	// Runnable: the thread has an instruction ready to execute.
	Runnable ThreadState = iota
	// BlockedOnLock: the thread's next instruction is a lock acquire on a
	// lock held by another thread.
	BlockedOnLock
	// Done: the thread has finished all syscalls of its test input.
	Done
)

func (s ThreadState) String() string {
	switch s {
	case Runnable:
		return "runnable"
	case BlockedOnLock:
		return "blocked"
	case Done:
		return "done"
	}
	return "invalid"
}

// Event reports the observable effects of one interpreter step.
type Event struct {
	Thread       int32
	Block        int32    // block the executed instruction belongs to
	Ref          InstrRef // static identity of the executed instruction
	EnteredBlock bool     // true when this step executed a block's first instruction

	// Memory effect (at most one of Read/Write per step).
	Read, Write bool
	Addr        int32
	Value       int64
	Lockset     uint64 // bitmask of locks held by the thread at the access

	// Synchronisation and bug effects.
	LockAcq, LockRel bool
	LockID           int32
	BugHit           bool
	BugID            int32

	SyscallDone bool // the thread completed one syscall this step
}

// Machine is the shared state of one kernel execution: memory and locks.
type Machine struct {
	K         *kernel.Kernel
	Mem       []int64
	lockOwner []int32 // thread ID or -1
	lockDepth []int32 // re-entrancy depth
	Steps     int     // total instructions executed across all threads
	// Limit is an optional per-execution step budget; <= 0 (or anything
	// past MaxSteps) keeps the global MaxSteps bound. Resilience policies
	// use it to kill runaway executions early.
	Limit int
}

// NewMachine prepares a machine with freshly initialised memory.
func NewMachine(k *kernel.Kernel) *Machine {
	m := &Machine{}
	m.Reset(k)
	return m
}

// Reset returns m to the state NewMachine(k) builds — initial memory, all
// locks free, Steps and Limit zero — reusing its buffers when they are
// large enough.
func (m *Machine) Reset(k *kernel.Kernel) {
	m.K = k
	m.Mem = append(m.Mem[:0], k.InitMem...)
	m.lockOwner = slices.Grow(m.lockOwner[:0], k.NumLocks)[:k.NumLocks]
	m.lockDepth = slices.Grow(m.lockDepth[:0], k.NumLocks)[:k.NumLocks]
	for i := range m.lockOwner {
		m.lockOwner[i] = -1
		m.lockDepth[i] = 0
	}
	m.Steps = 0
	m.Limit = 0
}

// LockOwner returns the thread holding lock id, or -1.
func (m *Machine) LockOwner(id int32) int32 { return m.lockOwner[id] }

// stepLimit returns the machine's effective step budget.
func (m *Machine) stepLimit() int {
	if m.Limit > 0 && m.Limit < MaxSteps {
		return m.Limit
	}
	return MaxSteps
}

// frame is one call-stack entry.
type frame struct {
	fn       int32
	blockIdx int32 // index into Funcs[fn].Blocks
	instrIdx int32
}

// Thread executes one sequential test input (a sequence of syscalls).
type Thread struct {
	ID    int32
	Regs  [kasm.NumRegs]int64
	Flag  int64 // last comparison result: left - right
	Steps int   // instructions executed by this thread

	m       *Machine
	sti     []Call
	nextSC  int
	stack   []frame
	state   ThreadState
	waiting int32  // lock blocked on, when state == BlockedOnLock
	held    uint64 // bitmask of locks held
	failure error  // pending ErrBadCall, surfaced by the next Step
}

// NewThread creates a thread on machine m that will execute sti.
// The thread is Done immediately if sti is empty.
func NewThread(m *Machine, id int32, sti []Call) *Thread {
	t := &Thread{}
	t.Reset(m, id, sti)
	return t
}

// Reset returns t to the state NewThread(m, id, sti) builds, keeping only
// its call-stack capacity.
func (t *Thread) Reset(m *Machine, id int32, sti []Call) {
	*t = Thread{ID: id, m: m, sti: sti, state: Done, stack: t.stack[:0]}
	t.startNextSyscall()
}

// State returns the thread's current state, re-evaluating lock blockage:
// a thread blocked on a lock becomes runnable once the lock is released.
func (t *Thread) State() ThreadState {
	if t.state == BlockedOnLock {
		owner := t.m.lockOwner[t.waiting]
		if owner == -1 || owner == t.ID {
			t.state = Runnable
		}
	}
	return t.state
}

// Held returns the bitmask of locks currently held by the thread.
func (t *Thread) Held() uint64 { return t.held }

// startNextSyscall loads the next syscall of the STI, placing its arguments
// in r0..r(n-1) per the kernel ABI. Remaining registers keep their values,
// modelling uninitialised kernel state. A call naming an unknown syscall or
// function leaves the thread Runnable with a pending failure that the next
// Step surfaces as an ErrBadCall-wrapped error.
func (t *Thread) startNextSyscall() {
	if t.nextSC >= len(t.sti) {
		t.state = Done
		return
	}
	call := t.sti[t.nextSC]
	t.nextSC++
	if call.Syscall < 0 || int(call.Syscall) >= len(t.m.K.Syscalls) {
		t.failure = fmt.Errorf("%w: thread %d: syscall %d outside [0,%d)",
			ErrBadCall, t.ID, call.Syscall, len(t.m.K.Syscalls))
		t.state = Runnable
		return
	}
	sc := t.m.K.Syscalls[call.Syscall]
	if t.m.K.Func(sc.Fn) == nil {
		t.failure = fmt.Errorf("%w: thread %d: syscall %d names unknown function f%d",
			ErrBadCall, t.ID, call.Syscall, sc.Fn)
		t.state = Runnable
		return
	}
	for i := 0; i < sc.NumArgs && i < len(call.Args); i++ {
		t.Regs[i] = call.Args[i]
	}
	t.stack = append(t.stack[:0], frame{fn: sc.Fn})
	t.state = Runnable
}

// PC returns the static reference of the next instruction to execute,
// or an invalid ref when the thread is Done.
func (t *Thread) PC() InstrRef {
	if t.state == Done || len(t.stack) == 0 {
		return InstrRef{Block: -1, Idx: -1}
	}
	f := &t.stack[len(t.stack)-1]
	fn := t.m.K.Func(f.fn)
	return InstrRef{Block: fn.Blocks[f.blockIdx], Idx: f.instrIdx}
}

// ErrStepLimit is returned by Step when the machine's step budget is
// exhausted, guarding against pathological executions.
var ErrStepLimit = fmt.Errorf("sim: machine step limit exceeded")

// ErrBadJump is returned (wrapped) by Step when control flow names a block
// outside the current function or falls off its end — unreachable for
// validated kernels, reachable for corrupted or fuzzed inputs.
var ErrBadJump = fmt.Errorf("sim: invalid jump target")

// ErrBadCall is returned (wrapped) by Step when a syscall or call names an
// unknown syscall number or function — likewise only reachable for
// corrupted inputs, which must degrade to an error, not a worker panic.
var ErrBadCall = fmt.Errorf("sim: invalid call target")

// MaxSteps bounds the total instructions one machine may execute.
const MaxSteps = 4 << 20

// Step executes one instruction of the thread and reports its effects.
// Stepping a Done thread is a no-op (zero Event). If the next instruction
// is a lock acquire on a contended lock, the thread transitions to
// BlockedOnLock and the event reports no progress; the scheduler must run
// another thread.
func (t *Thread) Step() (Event, error) {
	var ev Event
	ev.Thread = t.ID
	if t.failure != nil {
		return ev, t.failure
	}
	if t.State() != Runnable {
		return ev, nil
	}
	if t.m.Steps >= t.m.stepLimit() {
		return ev, ErrStepLimit
	}

	f := &t.stack[len(t.stack)-1]
	fn := t.m.K.Func(f.fn)
	if fn == nil {
		return ev, fmt.Errorf("%w: thread %d executing unknown function f%d", ErrBadCall, t.ID, f.fn)
	}
	if f.blockIdx < 0 || int(f.blockIdx) >= len(fn.Blocks) {
		return ev, fmt.Errorf("%w: thread %d fell off function f%d", ErrBadJump, t.ID, f.fn)
	}
	blockID := fn.Blocks[f.blockIdx]
	b := t.m.K.Block(blockID)
	if b == nil || f.instrIdx < 0 || int(f.instrIdx) >= len(b.Instrs) {
		return ev, fmt.Errorf("%w: thread %d at invalid instruction b%d:%d",
			ErrBadJump, t.ID, blockID, f.instrIdx)
	}
	in := &b.Instrs[f.instrIdx]

	ev.Block = blockID
	ev.Ref = InstrRef{Block: blockID, Idx: f.instrIdx}
	ev.EnteredBlock = f.instrIdx == 0

	// Lock acquisition may block without consuming the instruction.
	if in.Op == kasm.OpLock {
		owner := t.m.lockOwner[in.LockID]
		if owner != -1 && owner != t.ID {
			t.state = BlockedOnLock
			t.waiting = in.LockID
			ev.EnteredBlock = false // re-evaluated when actually executed
			return ev, nil
		}
	}

	t.m.Steps++
	t.Steps++

	advance := true // move to next instruction within the block
	switch in.Op {
	case kasm.OpNop:
	case kasm.OpMovI:
		t.Regs[in.Rd] = in.Imm
	case kasm.OpMov:
		t.Regs[in.Rd] = t.Regs[in.Rs]
	case kasm.OpAdd:
		t.Regs[in.Rd] += t.Regs[in.Rs]
	case kasm.OpAddI:
		t.Regs[in.Rd] += in.Imm
	case kasm.OpSub:
		t.Regs[in.Rd] -= t.Regs[in.Rs]
	case kasm.OpXor:
		t.Regs[in.Rd] ^= t.Regs[in.Rs]
	case kasm.OpAnd:
		t.Regs[in.Rd] &= t.Regs[in.Rs]
	case kasm.OpLoad:
		t.Regs[in.Rd] = t.m.Mem[in.Addr]
		ev.Read = true
		ev.Addr = in.Addr
		ev.Value = t.Regs[in.Rd]
		ev.Lockset = t.held
	case kasm.OpStore:
		t.m.Mem[in.Addr] = t.Regs[in.Rs]
		ev.Write = true
		ev.Addr = in.Addr
		ev.Value = t.Regs[in.Rs]
		ev.Lockset = t.held
	case kasm.OpCmp:
		t.Flag = t.Regs[in.Rd] - t.Regs[in.Rs]
	case kasm.OpCmpI:
		t.Flag = t.Regs[in.Rd] - in.Imm
	case kasm.OpLock:
		t.m.lockOwner[in.LockID] = t.ID
		t.m.lockDepth[in.LockID]++
		t.held |= 1 << uint(in.LockID)
		ev.LockAcq = true
		ev.LockID = in.LockID
	case kasm.OpUnlock:
		if t.m.lockOwner[in.LockID] == t.ID {
			t.m.lockDepth[in.LockID]--
			if t.m.lockDepth[in.LockID] <= 0 {
				t.m.lockDepth[in.LockID] = 0
				t.m.lockOwner[in.LockID] = -1
				t.held &^= 1 << uint(in.LockID)
			}
		}
		ev.LockRel = true
		ev.LockID = in.LockID
	case kasm.OpBug:
		ev.BugHit = true
		ev.BugID = int32(in.Imm)
	case kasm.OpJmp:
		if err := t.jumpTo(f, fn, in.Target); err != nil {
			return ev, err
		}
		advance = false
	case kasm.OpJeq:
		if err := t.branch(f, fn, in.Target, t.Flag == 0); err != nil {
			return ev, err
		}
		advance = false
	case kasm.OpJne:
		if err := t.branch(f, fn, in.Target, t.Flag != 0); err != nil {
			return ev, err
		}
		advance = false
	case kasm.OpJlt:
		if err := t.branch(f, fn, in.Target, t.Flag < 0); err != nil {
			return ev, err
		}
		advance = false
	case kasm.OpJge:
		if err := t.branch(f, fn, in.Target, t.Flag >= 0); err != nil {
			return ev, err
		}
		advance = false
	case kasm.OpCall:
		if t.m.K.Func(in.Callee) == nil {
			return ev, fmt.Errorf("%w: thread %d calls unknown function f%d at %s",
				ErrBadCall, t.ID, in.Callee, ev.Ref)
		}
		// Return continues at the next block of the caller.
		f.blockIdx++
		f.instrIdx = 0
		t.stack = append(t.stack, frame{fn: in.Callee})
		advance = false
	case kasm.OpRet:
		t.stack = t.stack[:len(t.stack)-1]
		if len(t.stack) == 0 {
			ev.SyscallDone = true
			t.startNextSyscall()
		}
		advance = false
	default:
		return ev, fmt.Errorf("sim: thread %d: unknown opcode %d at %s", t.ID, in.Op, ev.Ref)
	}

	if advance {
		f.instrIdx++
		if int(f.instrIdx) >= len(b.Instrs) {
			// Fallthrough to the lexically next block.
			f.blockIdx++
			f.instrIdx = 0
			if int(f.blockIdx) >= len(fn.Blocks) {
				// A block without terminator at the end of a function
				// cannot be generated, but guard anyway.
				return ev, fmt.Errorf("%w: thread %d fell off function f%d", ErrBadJump, t.ID, f.fn)
			}
		}
	}
	return ev, nil
}

// branch redirects control to target when taken; otherwise control falls
// through to the next block.
func (t *Thread) branch(f *frame, fn *kasm.Function, target int32, taken bool) error {
	if taken {
		return t.jumpTo(f, fn, target)
	}
	f.blockIdx++
	f.instrIdx = 0
	return nil
}

// jumpTo moves the frame to the start of the block with ID target. A target
// outside the function — unreachable for validated kernels — is an
// ErrBadJump-wrapped error, not a panic, so corrupted inputs degrade
// instead of crashing pool workers.
func (t *Thread) jumpTo(f *frame, fn *kasm.Function, target int32) error {
	for i, bid := range fn.Blocks {
		if bid == target {
			f.blockIdx = int32(i)
			f.instrIdx = 0
			return nil
		}
	}
	return fmt.Errorf("%w: thread %d: target b%d not in f%d", ErrBadJump, t.ID, target, fn.ID)
}

// InjectIRQ pushes an interrupt handler function onto the thread's call
// stack: the handler executes to completion via normal stepping, then its
// final ret pops back to the interrupted instruction stream. Injection is
// ignored for Done threads (nothing to interrupt). Injection while blocked
// on a lock is allowed — the handler runs, then the lock acquire retries —
// which is exactly how a masked-interrupt-free kernel behaves.
func (t *Thread) InjectIRQ(fn int32) {
	if t.state == Done || t.m.K.Func(fn) == nil {
		return
	}
	t.stack = append(t.stack, frame{fn: fn})
	if t.state == BlockedOnLock {
		// The handler may proceed even though the original instruction is
		// still waiting for its lock.
		t.state = Runnable
	}
}

// StackDepth returns the current call-stack depth (1 when executing the
// syscall's top-level function; +1 per nested call or injected handler).
func (t *Thread) StackDepth() int { return len(t.stack) }

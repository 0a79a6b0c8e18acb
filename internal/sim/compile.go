// Compiled direct-threaded executor.
//
// Compile translates a kernel once into per-block arrays of decoded
// instruction closures with pre-resolved jump, call and fallthrough
// positions. CThread.Step then performs one indirect call per instruction
// instead of re-decoding operands, re-resolving branch targets with a
// linear scan, and re-dispatching through a 22-way opcode switch the way
// the reference interpreter (Thread.Step) does on every step.
//
// The compiled executor is semantically pinned to the interpreter:
// identical Event streams, identical machine-state transitions, and
// identical error values (same wrapped sentinels, same texts) on every
// input — including corrupted kernels, hostile schedules and exhausted
// step budgets. Thread.Step stays the reference; ski's equivalence and
// fuzz suites compare the two step for step. A Program is immutable after
// Compile and safe for concurrent use by any number of machines.
package sim

import (
	"fmt"

	"snowcat/internal/kasm"
	"snowcat/internal/kernel"
)

// cop is one compiled instruction: an exec closure plus the pre-decoded
// lock discriminant Step needs before committing to execute (a contended
// acquire blocks the thread without consuming the instruction). The
// closure reports its memory/lock/bug effects into t.ev — a thread-owned
// buffer, not a parameter, so no per-step Event escapes to the heap.
type cop struct {
	isLock bool
	lockID int32
	exec   func(t *CThread, f *frame) error
}

// cblock mirrors one kasm.Block of one function in compiled form. A block
// ID the kernel cannot resolve compiles to an empty code array, which
// Step reports exactly like the interpreter's nil-block case.
type cblock struct {
	id   int32
	code []cop
}

// cfunc is one compiled function; blocks is parallel to Function.Blocks.
type cfunc struct {
	blocks []cblock
}

// Program is a kernel compiled for direct-threaded execution. Compile it
// once per kernel version and share it across threads and machines.
type Program struct {
	k     *kernel.Kernel
	funcs []*cfunc
}

// Kernel returns the kernel the program was compiled from.
func (p *Program) Kernel() *kernel.Kernel { return p.k }

func (p *Program) fn(id int32) *cfunc {
	if id < 0 || int(id) >= len(p.funcs) {
		return nil
	}
	return p.funcs[id]
}

// Compile translates every function of k into direct-threaded form.
func Compile(k *kernel.Kernel) *Program {
	p := &Program{k: k, funcs: make([]*cfunc, len(k.Funcs))}
	for id, fn := range k.Funcs {
		if fn == nil {
			continue
		}
		cf := &cfunc{blocks: make([]cblock, len(fn.Blocks))}
		// Jump resolution: block ID -> layout index. The interpreter's
		// jumpTo scans forward and takes the first match, so a duplicate
		// layout entry must not overwrite an earlier index.
		idxOf := make(map[int32]int32, len(fn.Blocks))
		for i, bid := range fn.Blocks {
			if _, ok := idxOf[bid]; !ok {
				idxOf[bid] = int32(i)
			}
		}
		for i, bid := range fn.Blocks {
			cb := &cf.blocks[i]
			cb.id = bid
			b := k.Block(bid)
			if b == nil {
				continue
			}
			cb.code = make([]cop, len(b.Instrs))
			for j := range b.Instrs {
				cb.code[j] = compileInstr(k, fn, idxOf, b, i, j)
			}
		}
		p.funcs[id] = cf
	}
	return p
}

// compileInstr decodes instruction j of block b (layout position bIdx of
// fn) into its closure. Every control outcome — fallthrough position,
// branch target index, unresolvable target, falling off the function —
// is resolved here, at compile time.
func compileInstr(k *kernel.Kernel, fn *kasm.Function, idxOf map[int32]int32, b *kasm.Block, bIdx, iIdx int) cop {
	in := &b.Instrs[iIdx]
	fnID := fn.ID

	// Pre-resolved fallthrough: where control lands when the instruction
	// neither jumps nor calls. Running past the function's last block is
	// the interpreter's same-step "fell off" error, also precompiled.
	var nb, ni int32
	fellOff := false
	switch {
	case iIdx+1 < len(b.Instrs):
		nb, ni = int32(bIdx), int32(iIdx+1)
	case bIdx+1 < len(fn.Blocks):
		nb, ni = int32(bIdx+1), 0
	default:
		fellOff = true
	}
	// seq wraps a straight-line body with the precomputed advance.
	seq := func(body func(t *CThread)) cop {
		if fellOff {
			return cop{exec: func(t *CThread, f *frame) error {
				body(t)
				return fmt.Errorf("%w: thread %d fell off function f%d", ErrBadJump, t.ID, fnID)
			}}
		}
		return cop{exec: func(t *CThread, f *frame) error {
			body(t)
			f.blockIdx, f.instrIdx = nb, ni
			return nil
		}}
	}

	switch in.Op {
	case kasm.OpNop:
		return seq(func(t *CThread) {})
	case kasm.OpMovI:
		rd, imm := in.Rd, in.Imm
		return seq(func(t *CThread) { t.Regs[rd] = imm })
	case kasm.OpMov:
		rd, rs := in.Rd, in.Rs
		return seq(func(t *CThread) { t.Regs[rd] = t.Regs[rs] })
	case kasm.OpAdd:
		rd, rs := in.Rd, in.Rs
		return seq(func(t *CThread) { t.Regs[rd] += t.Regs[rs] })
	case kasm.OpAddI:
		rd, imm := in.Rd, in.Imm
		return seq(func(t *CThread) { t.Regs[rd] += imm })
	case kasm.OpSub:
		rd, rs := in.Rd, in.Rs
		return seq(func(t *CThread) { t.Regs[rd] -= t.Regs[rs] })
	case kasm.OpXor:
		rd, rs := in.Rd, in.Rs
		return seq(func(t *CThread) { t.Regs[rd] ^= t.Regs[rs] })
	case kasm.OpAnd:
		rd, rs := in.Rd, in.Rs
		return seq(func(t *CThread) { t.Regs[rd] &= t.Regs[rs] })
	case kasm.OpLoad:
		rd, addr := in.Rd, in.Addr
		return seq(func(t *CThread) {
			v := t.m.Mem[addr]
			t.Regs[rd] = v
			t.ev.Read = true
			t.ev.Addr = addr
			t.ev.Value = v
			t.ev.Lockset = t.held
		})
	case kasm.OpStore:
		rs, addr := in.Rs, in.Addr
		return seq(func(t *CThread) {
			v := t.Regs[rs]
			t.m.Mem[addr] = v
			t.ev.Write = true
			t.ev.Addr = addr
			t.ev.Value = v
			t.ev.Lockset = t.held
		})
	case kasm.OpCmp:
		rd, rs := in.Rd, in.Rs
		return seq(func(t *CThread) { t.Flag = t.Regs[rd] - t.Regs[rs] })
	case kasm.OpCmpI:
		rd, imm := in.Rd, in.Imm
		return seq(func(t *CThread) { t.Flag = t.Regs[rd] - imm })
	case kasm.OpLock:
		id := in.LockID
		c := seq(func(t *CThread) {
			t.m.lockOwner[id] = t.ID
			t.m.lockDepth[id]++
			t.held |= 1 << uint(id)
			t.ev.LockAcq = true
			t.ev.LockID = id
		})
		c.isLock = true
		c.lockID = id
		return c
	case kasm.OpUnlock:
		id := in.LockID
		return seq(func(t *CThread) {
			if t.m.lockOwner[id] == t.ID {
				t.m.lockDepth[id]--
				if t.m.lockDepth[id] <= 0 {
					t.m.lockDepth[id] = 0
					t.m.lockOwner[id] = -1
					t.held &^= 1 << uint(id)
				}
			}
			t.ev.LockRel = true
			t.ev.LockID = id
		})
	case kasm.OpBug:
		id := int32(in.Imm)
		return seq(func(t *CThread) {
			t.ev.BugHit = true
			t.ev.BugID = id
		})
	case kasm.OpJmp:
		if tIdx, ok := idxOf[in.Target]; ok {
			return cop{exec: func(t *CThread, f *frame) error {
				f.blockIdx, f.instrIdx = tIdx, 0
				return nil
			}}
		}
		tgt := in.Target
		return cop{exec: func(t *CThread, f *frame) error {
			return fmt.Errorf("%w: thread %d: target b%d not in f%d", ErrBadJump, t.ID, tgt, fnID)
		}}
	case kasm.OpJeq, kasm.OpJne, kasm.OpJlt, kasm.OpJge:
		var cond func(int64) bool
		switch in.Op {
		case kasm.OpJeq:
			cond = func(fl int64) bool { return fl == 0 }
		case kasm.OpJne:
			cond = func(fl int64) bool { return fl != 0 }
		case kasm.OpJlt:
			cond = func(fl int64) bool { return fl < 0 }
		default:
			cond = func(fl int64) bool { return fl >= 0 }
		}
		// Not-taken falls through to the lexically next block; if that runs
		// past the function, the next Step's bounds check reports it —
		// exactly the interpreter's timing.
		fallNB := int32(bIdx + 1)
		if tIdx, ok := idxOf[in.Target]; ok {
			return cop{exec: func(t *CThread, f *frame) error {
				if cond(t.Flag) {
					f.blockIdx, f.instrIdx = tIdx, 0
				} else {
					f.blockIdx, f.instrIdx = fallNB, 0
				}
				return nil
			}}
		}
		tgt := in.Target
		return cop{exec: func(t *CThread, f *frame) error {
			if cond(t.Flag) {
				return fmt.Errorf("%w: thread %d: target b%d not in f%d", ErrBadJump, t.ID, tgt, fnID)
			}
			f.blockIdx, f.instrIdx = fallNB, 0
			return nil
		}}
	case kasm.OpCall:
		callee := in.Callee
		if k.Func(callee) == nil {
			ref := InstrRef{Block: b.ID, Idx: int32(iIdx)}
			return cop{exec: func(t *CThread, f *frame) error {
				return fmt.Errorf("%w: thread %d calls unknown function f%d at %s",
					ErrBadCall, t.ID, callee, ref)
			}}
		}
		retNB := int32(bIdx + 1) // return continues at the caller's next block
		return cop{exec: func(t *CThread, f *frame) error {
			// f aliases t.stack; update the caller frame before append may
			// move the backing array (same order as the interpreter).
			f.blockIdx, f.instrIdx = retNB, 0
			t.stack = append(t.stack, frame{fn: callee})
			return nil
		}}
	case kasm.OpRet:
		return cop{exec: func(t *CThread, f *frame) error {
			t.stack = t.stack[:len(t.stack)-1]
			if len(t.stack) == 0 {
				t.ev.SyscallDone = true
				t.startNextSyscall()
			}
			return nil
		}}
	default:
		opv := in.Op
		ref := InstrRef{Block: b.ID, Idx: int32(iIdx)}
		return cop{exec: func(t *CThread, f *frame) error {
			return fmt.Errorf("sim: thread %d: unknown opcode %d at %s", t.ID, opv, ref)
		}}
	}
}

// CThread executes one sequential test input through a compiled Program.
// It embeds Thread, so all thread state and the auxiliary behaviour —
// State, Held, PC, InjectIRQ, StackDepth, syscall setup — are literally
// the interpreter's own; only Step is replaced by compiled dispatch.
type CThread struct {
	Thread
	p  *Program
	ev Event // per-step effect buffer, reused to keep Step allocation-free
}

// NewCThread creates a compiled-execution thread on machine m. The machine
// must have been built for p.Kernel().
func NewCThread(p *Program, m *Machine, id int32, sti []Call) *CThread {
	t := &CThread{}
	t.Reset(p, m, id, sti)
	return t
}

// Reset returns t to the state NewCThread(p, m, id, sti) builds, keeping
// its call-stack capacity. The per-step event buffer is left as it is:
// Step overwrites it before anything reads it.
func (t *CThread) Reset(p *Program, m *Machine, id int32, sti []Call) {
	t.Thread.Reset(m, id, sti)
	t.p = p
}

// Step executes one instruction via the compiled program. Its observable
// behaviour — Event fields, state transitions, error values — is pinned
// to Thread.Step.
func (t *CThread) Step() (Event, error) {
	t.ev = Event{Thread: t.ID}
	if t.failure != nil {
		return t.ev, t.failure
	}
	if t.State() != Runnable {
		return t.ev, nil
	}
	if t.m.Steps >= t.m.stepLimit() {
		return t.ev, ErrStepLimit
	}

	f := &t.stack[len(t.stack)-1]
	cf := t.p.fn(f.fn)
	if cf == nil {
		return t.ev, fmt.Errorf("%w: thread %d executing unknown function f%d", ErrBadCall, t.ID, f.fn)
	}
	if f.blockIdx < 0 || int(f.blockIdx) >= len(cf.blocks) {
		return t.ev, fmt.Errorf("%w: thread %d fell off function f%d", ErrBadJump, t.ID, f.fn)
	}
	cb := &cf.blocks[f.blockIdx]
	if f.instrIdx < 0 || int(f.instrIdx) >= len(cb.code) {
		return t.ev, fmt.Errorf("%w: thread %d at invalid instruction b%d:%d",
			ErrBadJump, t.ID, cb.id, f.instrIdx)
	}
	op := &cb.code[f.instrIdx]

	t.ev.Block = cb.id
	t.ev.Ref = InstrRef{Block: cb.id, Idx: f.instrIdx}
	t.ev.EnteredBlock = f.instrIdx == 0

	// Contended lock acquire: block without consuming the instruction.
	if op.isLock {
		if owner := t.m.lockOwner[op.lockID]; owner != -1 && owner != t.ID {
			t.state = BlockedOnLock
			t.waiting = op.lockID
			t.ev.EnteredBlock = false // re-evaluated when actually executed
			return t.ev, nil
		}
	}

	t.m.Steps++
	t.Thread.Steps++
	err := op.exec(t, f)
	return t.ev, err
}

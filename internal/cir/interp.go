package cir

import (
	"context"
	"errors"
	"fmt"
	"math"
)

// Env supplies the semantics of virtual calls during interpretation. The
// SmartNIC simulator implements it with real packet bytes, flow tables and
// accelerator models; tests implement it with stubs.
type Env interface {
	// VCall executes the vcall with evaluated arguments, returning the
	// result value (ignored when the instruction has no destination).
	// in points into the running program (passing it by pointer keeps the
	// per-vcall cost at one word instead of copying the whole Instr) and
	// args is a scratch buffer owned by the engine and reused across calls:
	// both are valid only for the duration of the call, and implementations
	// must copy what they need to retain.
	VCall(in *Instr, args []uint64) (uint64, error)
}

// Hooks configure and observe execution. Every field may be left zero.
type Hooks struct {
	// Meter, when non-nil, prices every instruction (see Meter).
	Meter *Meter
	// OnBlock runs when control enters a block.
	OnBlock func(block int)
	// MaxSteps bounds total instructions executed (0 means the default of
	// one million), guarding against non-terminating NF loops.
	MaxSteps int
	// Ctx, when non-nil, is polled every ctxPollMask+1 steps; cancellation
	// aborts Run promptly with the context's error wrapped, so even a
	// tight NF loop cannot outlive its caller's deadline.
	Ctx context.Context
}

// Prices is a per-opcode instruction price vector, indexed by Op: the cycles
// one instruction costs on the unit that runs it. Vcalls price themselves
// inside Env.VCall, so a price vector holds zero for OpVCall (see
// lnic.InstrPrices).
type Prices [1 << 8]float64

// Meter books instruction pricing into counters the Env owns, so the Env's
// own charges (vcalls, memory) and the instructions' land on one clock.
// Before each instruction executes — after its step-limit and cancellation
// checks — Run adds Prices[op] to *Clock, then the same price to *Compute,
// and counts the instruction in *Steps (block entries are not counted). A nil
// field is not booked; a nil Prices prices every instruction at zero.
type Meter struct {
	Prices         *Prices
	Clock, Compute *float64
	Steps          *int64
}

// zeroPrices backs a Meter without a price vector. It is never written.
var zeroPrices Prices

// meterSink absorbs the bookings of a Meter's nil fields. Each engine owns
// one, so concurrent Runs on different engines never share it.
type meterSink struct {
	f float64
	n int64
}

// ports resolves the meter of h into the pointers a run loop books through,
// aiming nil fields (or a nil Hooks or Meter) at sink, so the loop books
// every instruction unconditionally.
func (h *Hooks) ports(sink *meterSink) (prices *Prices, clock, compute *float64, steps *int64) {
	prices, clock, compute, steps = &zeroPrices, &sink.f, &sink.f, &sink.n
	if h == nil || h.Meter == nil {
		return
	}
	m := h.Meter
	if m.Prices != nil {
		prices = m.Prices
	}
	if m.Clock != nil {
		clock = m.Clock
	}
	if m.Compute != nil {
		compute = m.Compute
	}
	if m.Steps != nil {
		steps = m.Steps
	}
	return
}

// ctxPollMask sets the cancellation poll period (power of two minus one):
// one Err() call per 2048 steps keeps the overhead unmeasurable while
// bounding cancellation latency to microseconds.
const ctxPollMask = 2047

// Interp executes programs. It is reusable across packets: registers and
// scratch memory are re-zeroed on each Run, while Env-held state (flow
// tables) persists, matching NF semantics where per-packet locals are fresh
// but state is durable.
//
// Allocation contract: a Run performs no heap allocations of its own — the
// register file, scratch memory and the vcall argument buffer are all sized
// at NewInterp — so the simulator's per-packet loop stays allocation-free.
// Anything the Env allocates inside VCall is outside this contract.
type Interp struct {
	prog    *Program
	regs    []uint64
	scratch []byte
	// argbuf is the reusable vcall argument scratch, sized at NewInterp to
	// the program's widest vcall. Env implementations see argbuf[:arity]
	// and must not retain it (see Env).
	argbuf []uint64
	sink   meterSink
}

// ErrStepLimit reports a runaway execution.
var ErrStepLimit = errors.New("cir: step limit exceeded")

// Arithmetic fault sentinels, shared by the interpreter and the compiled
// engine so a faulting packet produces the *same* error value on either
// dispatch path — differential tests compare error identity with errors.Is,
// and the hot path no longer allocates a fresh error per faulting packet.
var (
	ErrDivByZero = errors.New("division by zero")
	ErrModByZero = errors.New("modulo by zero")
)

// NewInterp prepares an interpreter for p.
func NewInterp(p *Program) *Interp {
	maxArity := 0
	for bi := range p.Blocks {
		for ii := range p.Blocks[bi].Instrs {
			if in := &p.Blocks[bi].Instrs[ii]; in.Op == OpVCall && len(in.Args) > maxArity {
				maxArity = len(in.Args)
			}
		}
	}
	return &Interp{
		prog:    p,
		regs:    make([]uint64, p.NumRegs),
		scratch: make([]byte, p.ScratchBytes),
		argbuf:  make([]uint64, maxArity),
	}
}

// Reg returns the current value of a register (for tests).
func (it *Interp) Reg(r Reg) uint64 { return it.regs[r] }

// Run executes the program for one packet and returns the verdict. The
// inner loop is chosen once per Run: when no hooks are set (no Meter, no
// OnBlock callback and no cancellation context) a specialized loop skips the
// per-instruction pricing and poll checks entirely; otherwise the full
// hooked loop runs, preserving the ctxPollMask cancellation contract. Both
// loops count steps identically, so MaxSteps trips at the same point either
// way.
func (it *Interp) Run(env Env, h *Hooks) (uint64, error) {
	for i := range it.regs {
		it.regs[i] = 0
	}
	for i := range it.scratch {
		it.scratch[i] = 0
	}
	maxSteps := 1_000_000
	if h != nil && h.MaxSteps > 0 {
		maxSteps = h.MaxSteps
	}
	if h == nil || (h.Meter == nil && h.OnBlock == nil && h.Ctx == nil) {
		return it.runFast(env, maxSteps)
	}
	return it.runHooked(env, h, maxSteps)
}

// runFast is the hook-free inner loop: identical semantics and step
// accounting to runHooked, minus the per-step hook and context checks the
// static-hooks case never needs.
func (it *Interp) runFast(env Env, maxSteps int) (uint64, error) {
	steps := 0
	bi := 0
	for {
		steps++
		if steps > maxSteps {
			return 0, fmt.Errorf("%w (%d blocks/instructions) in %s", ErrStepLimit, maxSteps, it.prog.Name)
		}
		blk := &it.prog.Blocks[bi]
		for ii := range blk.Instrs {
			in := &blk.Instrs[ii]
			steps++
			if steps > maxSteps {
				return 0, fmt.Errorf("%w (%d instructions) in %s", ErrStepLimit, maxSteps, it.prog.Name)
			}
			if err := it.step(in, env); err != nil {
				return 0, fmt.Errorf("cir: block %d %q: %w", bi, in.String(), err)
			}
		}
		t := blk.Term
		switch t.Kind {
		case TermJump:
			bi = t.Then
		case TermBranch:
			if it.regs[t.Cond] != 0 {
				bi = t.Then
			} else {
				bi = t.Else
			}
		case TermReturn:
			if t.Ret == NoReg {
				return VerdictPass, nil
			}
			return it.regs[t.Ret], nil
		}
	}
}

// runHooked is the observed inner loop, pricing instructions, running hooks
// and polling the context exactly as Hooks documents.
func (it *Interp) runHooked(env Env, h *Hooks, maxSteps int) (uint64, error) {
	prices, clock, compute, msteps := h.ports(&it.sink)
	steps := 0
	bi := 0
	for {
		// Block entries count against the budget too: an empty
		// self-looping block (possible after optimization) must still trip
		// the limit.
		steps++
		if steps > maxSteps {
			return 0, fmt.Errorf("%w (%d blocks/instructions) in %s", ErrStepLimit, maxSteps, it.prog.Name)
		}
		if h.Ctx != nil && steps&ctxPollMask == 0 {
			if err := h.Ctx.Err(); err != nil {
				return 0, fmt.Errorf("cir: %s interrupted: %w", it.prog.Name, err)
			}
		}
		if h.OnBlock != nil {
			h.OnBlock(bi)
		}
		blk := &it.prog.Blocks[bi]
		for ii := range blk.Instrs {
			in := &blk.Instrs[ii]
			steps++
			if steps > maxSteps {
				return 0, fmt.Errorf("%w (%d instructions) in %s", ErrStepLimit, maxSteps, it.prog.Name)
			}
			if h.Ctx != nil && steps&ctxPollMask == 0 {
				if err := h.Ctx.Err(); err != nil {
					return 0, fmt.Errorf("cir: %s interrupted: %w", it.prog.Name, err)
				}
			}
			*msteps++
			p := prices[in.Op]
			*clock += p
			*compute += p
			if err := it.step(in, env); err != nil {
				return 0, fmt.Errorf("cir: block %d %q: %w", bi, in.String(), err)
			}
		}
		t := blk.Term
		switch t.Kind {
		case TermJump:
			bi = t.Then
		case TermBranch:
			if it.regs[t.Cond] != 0 {
				bi = t.Then
			} else {
				bi = t.Else
			}
		case TermReturn:
			if t.Ret == NoReg {
				return VerdictPass, nil
			}
			return it.regs[t.Ret], nil
		}
	}
}

func (it *Interp) step(in *Instr, env Env) error {
	arg := func(i int) uint64 { return it.regs[in.Args[i]] }
	set := func(v uint64) {
		if in.Dst != NoReg {
			it.regs[in.Dst] = v
		}
	}
	switch in.Op {
	case OpNop:
	case OpConst:
		set(in.Imm)
	case OpCopy:
		set(arg(0))
	case OpAdd:
		set(arg(0) + arg(1))
	case OpSub:
		set(arg(0) - arg(1))
	case OpMul:
		set(arg(0) * arg(1))
	case OpDiv:
		if arg(1) == 0 {
			return ErrDivByZero
		}
		set(arg(0) / arg(1))
	case OpMod:
		if arg(1) == 0 {
			return ErrModByZero
		}
		set(arg(0) % arg(1))
	case OpAnd:
		set(arg(0) & arg(1))
	case OpOr:
		set(arg(0) | arg(1))
	case OpXor:
		set(arg(0) ^ arg(1))
	case OpShl:
		set(arg(0) << (arg(1) & 63))
	case OpShr:
		set(arg(0) >> (arg(1) & 63))
	case OpNot:
		set(^arg(0))
	case OpEq:
		set(b2u(arg(0) == arg(1)))
	case OpNe:
		set(b2u(arg(0) != arg(1)))
	case OpLt:
		set(b2u(arg(0) < arg(1)))
	case OpLe:
		set(b2u(arg(0) <= arg(1)))
	case OpGt:
		set(b2u(arg(0) > arg(1)))
	case OpGe:
		set(b2u(arg(0) >= arg(1)))
	case OpFAdd:
		set(math.Float64bits(math.Float64frombits(arg(0)) + math.Float64frombits(arg(1))))
	case OpFMul:
		set(math.Float64bits(math.Float64frombits(arg(0)) * math.Float64frombits(arg(1))))
	case OpFDiv:
		set(math.Float64bits(math.Float64frombits(arg(0)) / math.Float64frombits(arg(1))))
	case OpLoad:
		v, err := loadScratch(it.scratch, arg(0), in.Size)
		if err != nil {
			return err
		}
		set(v)
	case OpStore:
		return storeScratch(it.scratch, arg(0), arg(1), in.Size)
	case OpVCall:
		// The argument buffer is interpreter-owned scratch: sized once at
		// NewInterp, resliced per call, never retained by the Env.
		args := it.argbuf[:len(in.Args)]
		for i := range in.Args {
			args[i] = arg(i)
		}
		v, err := env.VCall(in, args)
		if err != nil {
			return err
		}
		set(v)
	default:
		return fmt.Errorf("unknown opcode %s", in.Op)
	}
	return nil
}

// loadScratch and storeScratch are the little-endian scratch-memory
// semantics shared by the interpreter and the compiled engine; keeping them
// in one place keeps the bounds-fault text byte-identical on both paths.
func loadScratch(scratch []byte, addr uint64, size int) (uint64, error) {
	// addr is untrusted: addr+size wraps for addresses near 2^64 and would
	// sail past the sum check alone, so reject addr > len first.
	if addr > uint64(len(scratch)) || addr+uint64(size) > uint64(len(scratch)) {
		return 0, fmt.Errorf("scratch load out of bounds: addr=%d size=%d len=%d", addr, size, len(scratch))
	}
	var v uint64
	for i := 0; i < size; i++ {
		v |= uint64(scratch[addr+uint64(i)]) << (8 * i)
	}
	return v, nil
}

func storeScratch(scratch []byte, addr, val uint64, size int) error {
	if addr > uint64(len(scratch)) || addr+uint64(size) > uint64(len(scratch)) {
		return fmt.Errorf("scratch store out of bounds: addr=%d size=%d len=%d", addr, size, len(scratch))
	}
	for i := 0; i < size; i++ {
		scratch[addr+uint64(i)] = byte(val >> (8 * i))
	}
	return nil
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

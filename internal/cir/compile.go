package cir

import (
	"context"
	"errors"
	"fmt"
	"math"
)

// This file implements the production execution engine. Compile lowers every
// instruction of the program into a record in one program-wide slab: the
// record holds the opcode, which selects a static function from opFns, plus
// the operands that function reads — destination, argument registers,
// immediate and access size. Each basic block is a sub-slice of the slab,
// and its terminator is flattened to direct block indices, so a compile
// costs a constant number of allocations whatever the program size. The
// predictor compiles once per prediction, so records hold no pointers: the
// garbage collector never scans the slab and filling it needs no write
// barriers. The source *Instr, which vcalls receive, is read from the
// program alongside. Malformed programs — unknown opcodes, wrong arg counts,
// out-of-range registers or targets — are rejected at compile time instead
// of mid-run.
//
// Location text (the "block N instr M (...)" of compile errors and the
// "cir: block N \"instr\"" prefix of runtime faults) is rendered only on the
// error path, so neither Compile nor a faultless Run formats a string.
//
// The interpreter (interp.go) is the reference implementation and the test
// oracle. Compiled.Run replicates Interp.Run exactly: same register/scratch
// zeroing, same step accounting (block entries and instructions each cost
// one step, checked against MaxSteps before executing), same cancellation
// poll period, same meter bookings and hook event order, same error text,
// same VerdictPass defaulting. Differential tests (FuzzCompiledVsInterp,
// TestCompiledOps, the meter differential, TestRunContextMatchesReference)
// hold the two engines to identical values, error strings and meter
// bookings.

// state is the mutable execution context the opcode functions run against.
// One state is embedded in each Compiled and reused across Runs, so
// steady-state execution performs no heap allocations (the same contract
// Interp documents).
type state struct {
	// regs holds the program's registers plus one trailing sink register
	// that instructions with a NoReg destination write to.
	regs    []uint64
	scratch []byte
	// argbuf is the reusable vcall argument scratch, sized at Compile to the
	// program's widest vcall; Env implementations must not retain it.
	argbuf []uint64
	env    Env
	sink   meterSink
}

// opFn executes one lowered instruction; in is its source instruction. A
// non-nil error is a runtime fault (division by zero, scratch bounds, vcall
// failure); Run prefixes it with the instruction's location.
type opFn func(st *state, r *rec, in *Instr) error

// rec is one lowered instruction. Which operand fields its function reads
// depends on the opcode; a0/a1 hold Args[0]/Args[1] where the opcode has
// them, and dst is the sink register when the destination is NoReg.
// Register indices fit in int32 because Compile bounds the register file.
type rec struct {
	imm         uint64
	dst, a0, a1 int32
	op          Op
	size        uint8
}

// cblock is one compiled basic block: its slab records, the source
// instructions they were lowered from (index for index), and the terminator
// flattened into direct fields.
type cblock struct {
	code   []rec
	instrs []Instr
	kind   TermKind
	cond   Reg // TermBranch condition register
	then   int // TermJump/TermBranch target
	els    int // TermBranch fallthrough
	ret    Reg // TermReturn verdict register (NoReg → VerdictPass)
}

// Compiled is a lowered program. Like Interp it is reusable across packets
// but not safe for concurrent Runs: registers, scratch and the vcall
// argument buffer are shared mutable state.
type Compiled struct {
	prog   *Program
	blocks []cblock
	st     state
}

// Compile lowers p into a Compiled engine. It validates what execution
// depends on — opcode known, arity correct, registers and branch targets in
// range — and fails fast on violations, so Run never encounters a malformed
// instruction. Compile does not replace Verify (which additionally checks
// vcall catalogs, state references and reachability); it refuses exactly
// the programs it could not execute faithfully.
func Compile(p *Program) (*Compiled, error) {
	if len(p.Blocks) == 0 {
		return nil, fmt.Errorf("cir: compile %s: program has no blocks", p.Name)
	}
	if p.NumRegs >= math.MaxInt32 {
		return nil, fmt.Errorf("cir: compile %s: %d registers exceed the engine's limit", p.Name, p.NumRegs)
	}
	n := 0
	for bi := range p.Blocks {
		n += len(p.Blocks[bi].Instrs)
	}
	c := &Compiled{prog: p, blocks: make([]cblock, len(p.Blocks))}
	slab := make([]rec, n)
	maxArity := 0
	for bi := range p.Blocks {
		blk := &p.Blocks[bi]
		cb := &c.blocks[bi]
		k := len(blk.Instrs)
		cb.code, slab = slab[:k:k], slab[k:]
		cb.instrs = blk.Instrs
		for ii := range blk.Instrs {
			in := &blk.Instrs[ii]
			if err := checkArity(in); err != nil {
				return nil, fmt.Errorf("cir: %s: %w", instrWhere(bi, ii, in), err)
			}
			if err := checkCompileRegs(p, in); err != nil {
				return nil, fmt.Errorf("cir: compile: %s: %w", instrWhere(bi, ii, in), err)
			}
			if opFns[in.Op] == nil {
				return nil, fmt.Errorf("cir: compile: %s: unknown opcode %s", instrWhere(bi, ii, in), in.Op)
			}
			r := &cb.code[ii]
			r.op, r.imm, r.size = in.Op, in.Imm, uint8(in.Size)
			r.dst = int32(in.Dst)
			if in.Dst == NoReg {
				r.dst = int32(p.NumRegs)
			}
			if len(in.Args) > 0 {
				r.a0 = int32(in.Args[0])
			}
			if len(in.Args) > 1 {
				r.a1 = int32(in.Args[1])
			}
			if in.Op == OpVCall && len(in.Args) > maxArity {
				maxArity = len(in.Args)
			}
		}
		if err := compileTerm(p, bi, cb); err != nil {
			return nil, err
		}
	}
	// Registers, the sink and the vcall argument buffer share one backing
	// array.
	nregs := p.NumRegs + 1
	words := make([]uint64, nregs+maxArity)
	c.st = state{
		regs:    words[:nregs:nregs],
		scratch: make([]byte, p.ScratchBytes),
		argbuf:  words[nregs:],
	}
	return c, nil
}

// instrWhere renders an instruction's location for compile errors; callers
// reach it only on the error path.
func instrWhere(bi, ii int, in *Instr) string {
	return fmt.Sprintf("block %d instr %d (%s)", bi, ii, in)
}

// checkCompileRegs rejects instructions whose registers the engine could not
// address: Dst outside the register file (NoReg is fine — "no destination"),
// or any operand that is NoReg or out of range. The error carries no
// location; the caller prefixes it.
func checkCompileRegs(p *Program, in *Instr) error {
	if in.Dst != NoReg && (int(in.Dst) < 0 || int(in.Dst) >= p.NumRegs) {
		return fmt.Errorf("register %s out of range (NumRegs=%d)", in.Dst, p.NumRegs)
	}
	for _, a := range in.Args {
		if a == NoReg {
			return errors.New("NoReg used as operand")
		}
		if int(a) < 0 || int(a) >= p.NumRegs {
			return fmt.Errorf("register %s out of range (NumRegs=%d)", a, p.NumRegs)
		}
	}
	return nil
}

// compileTerm flattens and validates a block terminator.
func compileTerm(p *Program, bi int, cb *cblock) error {
	t := p.Blocks[bi].Term
	cb.kind = t.Kind
	switch t.Kind {
	case TermJump:
		if t.Then < 0 || t.Then >= len(p.Blocks) {
			return fmt.Errorf("cir: compile: block %d jump target %d out of range", bi, t.Then)
		}
		cb.then = t.Then
	case TermBranch:
		if t.Then < 0 || t.Then >= len(p.Blocks) || t.Else < 0 || t.Else >= len(p.Blocks) {
			return fmt.Errorf("cir: compile: block %d branch targets (%d,%d) out of range", bi, t.Then, t.Else)
		}
		if t.Cond == NoReg || int(t.Cond) < 0 || int(t.Cond) >= p.NumRegs {
			return fmt.Errorf("cir: compile: block %d branch condition %s out of range (NumRegs=%d)", bi, t.Cond, p.NumRegs)
		}
		cb.cond = t.Cond
		cb.then = t.Then
		cb.els = t.Else
	case TermReturn:
		if t.Ret != NoReg && (int(t.Ret) < 0 || int(t.Ret) >= p.NumRegs) {
			return fmt.Errorf("cir: compile: block %d return register %s out of range (NumRegs=%d)", bi, t.Ret, p.NumRegs)
		}
		cb.ret = t.Ret
	default:
		return fmt.Errorf("cir: compile: block %d has invalid terminator kind %d", bi, t.Kind)
	}
	return nil
}

// opFns maps every opcode to its function; nil marks an unknown opcode. It
// spans the whole Op range, so indexing it needs no bounds check. Every
// opcode in the Op enum must have an entry; TestCompiledEveryOpcodeHasACase
// walks opNames to ensure a new opcode cannot land without one.
var opFns = [1 << 8]opFn{
	OpNop: opNop, OpConst: opConst, OpCopy: opCopy, OpNot: opNot,
	OpAdd: opAdd, OpSub: opSub, OpMul: opMul, OpDiv: opDiv, OpMod: opMod,
	OpAnd: opAnd, OpOr: opOr, OpXor: opXor, OpShl: opShl, OpShr: opShr,
	OpEq: opEq, OpNe: opNe, OpLt: opLt, OpLe: opLe, OpGt: opGt, OpGe: opGe,
	OpFAdd: opFAdd, OpFMul: opFMul, OpFDiv: opFDiv,
	OpLoad: opLoad, OpStore: opStore, OpVCall: opVCall,
}

// The opcode functions. Every destination write lands in a real register or
// the sink, so none checks for NoReg. Floats operate on IEEE-754 bit
// patterns stored in integer registers and shift counts are masked to 63,
// exactly as the interpreter does.
func opNop(*state, *rec, *Instr) error { return nil }

func opConst(st *state, r *rec, _ *Instr) error {
	st.regs[r.dst] = r.imm
	return nil
}

func opCopy(st *state, r *rec, _ *Instr) error {
	st.regs[r.dst] = st.regs[r.a0]
	return nil
}

func opNot(st *state, r *rec, _ *Instr) error {
	st.regs[r.dst] = ^st.regs[r.a0]
	return nil
}

func opAdd(st *state, r *rec, _ *Instr) error {
	st.regs[r.dst] = st.regs[r.a0] + st.regs[r.a1]
	return nil
}

func opSub(st *state, r *rec, _ *Instr) error {
	st.regs[r.dst] = st.regs[r.a0] - st.regs[r.a1]
	return nil
}

func opMul(st *state, r *rec, _ *Instr) error {
	st.regs[r.dst] = st.regs[r.a0] * st.regs[r.a1]
	return nil
}

func opAnd(st *state, r *rec, _ *Instr) error {
	st.regs[r.dst] = st.regs[r.a0] & st.regs[r.a1]
	return nil
}

func opOr(st *state, r *rec, _ *Instr) error {
	st.regs[r.dst] = st.regs[r.a0] | st.regs[r.a1]
	return nil
}

func opXor(st *state, r *rec, _ *Instr) error {
	st.regs[r.dst] = st.regs[r.a0] ^ st.regs[r.a1]
	return nil
}

func opShl(st *state, r *rec, _ *Instr) error {
	st.regs[r.dst] = st.regs[r.a0] << (st.regs[r.a1] & 63)
	return nil
}

func opShr(st *state, r *rec, _ *Instr) error {
	st.regs[r.dst] = st.regs[r.a0] >> (st.regs[r.a1] & 63)
	return nil
}

func opEq(st *state, r *rec, _ *Instr) error {
	st.regs[r.dst] = b2u(st.regs[r.a0] == st.regs[r.a1])
	return nil
}

func opNe(st *state, r *rec, _ *Instr) error {
	st.regs[r.dst] = b2u(st.regs[r.a0] != st.regs[r.a1])
	return nil
}

func opLt(st *state, r *rec, _ *Instr) error {
	st.regs[r.dst] = b2u(st.regs[r.a0] < st.regs[r.a1])
	return nil
}

func opLe(st *state, r *rec, _ *Instr) error {
	st.regs[r.dst] = b2u(st.regs[r.a0] <= st.regs[r.a1])
	return nil
}

func opGt(st *state, r *rec, _ *Instr) error {
	st.regs[r.dst] = b2u(st.regs[r.a0] > st.regs[r.a1])
	return nil
}

func opGe(st *state, r *rec, _ *Instr) error {
	st.regs[r.dst] = b2u(st.regs[r.a0] >= st.regs[r.a1])
	return nil
}

func opFAdd(st *state, r *rec, _ *Instr) error {
	st.regs[r.dst] = fAdd(st.regs[r.a0], st.regs[r.a1])
	return nil
}

func opFMul(st *state, r *rec, _ *Instr) error {
	st.regs[r.dst] = fMul(st.regs[r.a0], st.regs[r.a1])
	return nil
}

func opFDiv(st *state, r *rec, _ *Instr) error {
	st.regs[r.dst] = fDiv(st.regs[r.a0], st.regs[r.a1])
	return nil
}

func fAdd(a, b uint64) uint64 {
	return math.Float64bits(math.Float64frombits(a) + math.Float64frombits(b))
}

func fMul(a, b uint64) uint64 {
	return math.Float64bits(math.Float64frombits(a) * math.Float64frombits(b))
}

func fDiv(a, b uint64) uint64 {
	return math.Float64bits(math.Float64frombits(a) / math.Float64frombits(b))
}

func opDiv(st *state, r *rec, _ *Instr) error {
	b := st.regs[r.a1]
	if b == 0 {
		return ErrDivByZero
	}
	st.regs[r.dst] = st.regs[r.a0] / b
	return nil
}

func opMod(st *state, r *rec, _ *Instr) error {
	b := st.regs[r.a1]
	if b == 0 {
		return ErrModByZero
	}
	st.regs[r.dst] = st.regs[r.a0] % b
	return nil
}

func opLoad(st *state, r *rec, _ *Instr) error {
	v, err := loadScratch(st.scratch, st.regs[r.a0], int(r.size))
	if err != nil {
		return err
	}
	st.regs[r.dst] = v
	return nil
}

func opStore(st *state, r *rec, _ *Instr) error {
	return storeScratch(st.scratch, st.regs[r.a0], st.regs[r.a1], int(r.size))
}

// opVCall hands env.VCall the same *Instr the interpreter would pass, and
// the argument buffer follows the same reuse contract (valid only for the
// call).
func opVCall(st *state, r *rec, in *Instr) error {
	buf := st.argbuf[:len(in.Args)]
	for i, a := range in.Args {
		buf[i] = st.regs[a]
	}
	v, err := st.env.VCall(in, buf)
	if err != nil {
		return err
	}
	st.regs[r.dst] = v
	return nil
}

// Program returns the program c was compiled from.
func (c *Compiled) Program() *Program { return c.prog }

// Run executes the compiled program for one packet and returns the verdict.
// It mirrors Interp.Run clause for clause: registers and scratch are
// re-zeroed, MaxSteps defaults to one million, the meter books and hooks
// fire in the same order, and Ctx is polled every ctxPollMask+1 steps. The
// hooks and the meter's pointers are hoisted into locals once; an absent
// meter books into the engine's sink, so pricing costs no branch. The
// engine drops env when Run returns, so an idle engine keeps nothing of its
// last caller alive.
func (c *Compiled) Run(env Env, h *Hooks) (uint64, error) {
	v, err := c.run(env, h)
	c.st.env = nil
	return v, err
}

func (c *Compiled) run(env Env, h *Hooks) (uint64, error) {
	st := &c.st
	clear(st.regs)
	clear(st.scratch)
	st.env = env
	maxSteps := 1_000_000
	var (
		onBlock func(int)
		ctx     context.Context
	)
	prices, clock, compute, msteps := h.ports(&st.sink)
	if h != nil {
		if h.MaxSteps > 0 {
			maxSteps = h.MaxSteps
		}
		onBlock, ctx = h.OnBlock, h.Ctx
	}
	steps := 0
	bi := 0
	for {
		// Block entries count against the budget too: an empty self-looping
		// block must still trip the limit.
		steps++
		if steps > maxSteps {
			return 0, fmt.Errorf("%w (%d blocks/instructions) in %s", ErrStepLimit, maxSteps, c.prog.Name)
		}
		if steps&ctxPollMask == 0 && ctx != nil {
			if err := ctx.Err(); err != nil {
				return 0, c.interrupted(err)
			}
		}
		if onBlock != nil {
			onBlock(bi)
		}
		blk := &c.blocks[bi]
		instrs := blk.instrs[:len(blk.code)]
		for i := range blk.code {
			r, in := &blk.code[i], &instrs[i]
			steps++
			if steps > maxSteps {
				return 0, fmt.Errorf("%w (%d instructions) in %s", ErrStepLimit, maxSteps, c.prog.Name)
			}
			if steps&ctxPollMask == 0 && ctx != nil {
				if err := ctx.Err(); err != nil {
					return 0, c.interrupted(err)
				}
			}
			*msteps++
			p := prices[r.op]
			*clock += p
			*compute += p
			if err := opFns[r.op](st, r, in); err != nil {
				return 0, fmt.Errorf("cir: block %d %q: %w", bi, in.String(), err)
			}
		}
		switch blk.kind {
		case TermJump:
			bi = blk.then
		case TermBranch:
			if st.regs[blk.cond] != 0 {
				bi = blk.then
			} else {
				bi = blk.els
			}
		case TermReturn:
			if blk.ret == NoReg {
				return VerdictPass, nil
			}
			return st.regs[blk.ret], nil
		}
	}
}

func (c *Compiled) interrupted(err error) error {
	return fmt.Errorf("cir: %s interrupted: %w", c.prog.Name, err)
}

package cir

import "fmt"

// Builder constructs Programs imperatively. The NF-dialect front end lowers
// through it, and tests and hand-written NFs can use it directly in place of
// DSL sources.
//
// Misuse — emitting into a sealed block, sealing twice, switching to an
// out-of-range block, or naming an unknown vcall — does not panic: the first
// such mistake is latched and reported by Program as a diagnostic, so a
// front-end bug (or a hostile NF source that drives the front end into one)
// surfaces as a compile error rather than a crash. Panics remain only for
// invariants no caller can reach (see MustProgram).
type Builder struct {
	prog    Program
	cur     int // index of the block under construction
	nextReg Reg
	sealed  map[int]bool
	err     error // first structural misuse, reported by Program
}

// NewBuilder starts a program with one entry block.
func NewBuilder(name string) *Builder {
	b := &Builder{
		prog:   Program{Name: name, Patterns: map[string][]string{}},
		sealed: map[int]bool{},
	}
	b.prog.Blocks = append(b.prog.Blocks, Block{Label: "entry"})
	return b
}

// AllocScratch reserves n bytes of local scratch memory and returns the base
// offset, 8-byte aligned.
func (b *Builder) AllocScratch(n int) int {
	off := (b.prog.ScratchBytes + 7) &^ 7
	b.prog.ScratchBytes = off + n
	return off
}

// DeclareState registers a state object and returns its name for vcalls.
func (b *Builder) DeclareState(s StateObj) string {
	b.prog.State = append(b.prog.State, s)
	return s.Name
}

// DeclarePatterns registers a DPI pattern set as read-only state.
func (b *Builder) DeclarePatterns(name string, patterns []string) string {
	total := 0
	for _, p := range patterns {
		total += len(p)
	}
	b.prog.State = append(b.prog.State, StateObj{
		Name: name, Kind: StatePattern,
		ValueSize: 1, Capacity: total * 8, // automaton blow-up factor
		ReadOnly: true,
	})
	b.prog.Patterns[name] = patterns
	return name
}

// NewBlock appends an empty block and returns its index.
func (b *Builder) NewBlock(label string) int {
	b.prog.Blocks = append(b.prog.Blocks, Block{Label: label})
	return len(b.prog.Blocks) - 1
}

// fail latches the first structural misuse; Program reports it.
func (b *Builder) fail(format string, args ...any) {
	if b.err == nil {
		b.err = fmt.Errorf(format, args...)
	}
}

// SetBlock switches emission to block idx.
func (b *Builder) SetBlock(idx int) {
	if idx < 0 || idx >= len(b.prog.Blocks) {
		b.fail("cir: SetBlock(%d) out of range (have %d blocks)", idx, len(b.prog.Blocks))
		return
	}
	b.cur = idx
}

func (b *Builder) newReg() Reg {
	r := b.nextReg
	b.nextReg++
	return r
}

func (b *Builder) emit(in Instr) Reg {
	if b.sealed[b.cur] {
		b.fail("cir: emitting %s into sealed block %d (%s)", in.Op, b.cur, b.prog.Blocks[b.cur].Label)
		return in.Dst
	}
	blk := &b.prog.Blocks[b.cur]
	blk.Instrs = append(blk.Instrs, in)
	return in.Dst
}

// Const emits a constant load.
func (b *Builder) Const(v uint64) Reg {
	return b.emit(Instr{Op: OpConst, Dst: b.newReg(), Imm: v})
}

// CopyInto emits a copy targeting an existing register. CIR is not SSA:
// front ends bind mutable NF variables to fixed registers and assign through
// this.
func (b *Builder) CopyInto(dst, src Reg) {
	b.emit(Instr{Op: OpCopy, Dst: dst, Args: []Reg{src}})
}

// FreshReg allocates a register without emitting an instruction (variable
// slots for front ends).
func (b *Builder) FreshReg() Reg { return b.newReg() }

// Bin emits a two-operand instruction.
func (b *Builder) Bin(op Op, x, y Reg) Reg {
	return b.emit(Instr{Op: op, Dst: b.newReg(), Args: []Reg{x, y}})
}

// Not emits a bitwise complement.
func (b *Builder) Not(x Reg) Reg {
	return b.emit(Instr{Op: OpNot, Dst: b.newReg(), Args: []Reg{x}})
}

// Load emits a scratch-memory load of size bytes at addr.
func (b *Builder) Load(addr Reg, size int) Reg {
	return b.emit(Instr{Op: OpLoad, Dst: b.newReg(), Args: []Reg{addr}, Size: size})
}

// Store emits a scratch-memory store.
func (b *Builder) Store(addr, val Reg, size int) {
	b.emit(Instr{Op: OpStore, Dst: NoReg, Args: []Reg{addr, val}, Size: size})
}

// VCall emits a virtual call returning a value.
func (b *Builder) VCall(vc VCall, state string, args ...Reg) Reg {
	if !vc.Valid() {
		b.fail("cir: unknown vcall %q", vc)
		return b.newReg()
	}
	return b.emit(Instr{Op: OpVCall, Dst: b.newReg(), Callee: vc, State: state, Args: args})
}

// VCallVoid emits a virtual call that produces no value.
func (b *Builder) VCallVoid(vc VCall, state string, args ...Reg) {
	if !vc.Valid() {
		b.fail("cir: unknown vcall %q", vc)
		return
	}
	b.emit(Instr{Op: OpVCall, Dst: NoReg, Callee: vc, State: state, Args: args})
}

// Jump seals the current block with an unconditional jump.
func (b *Builder) Jump(target int) {
	b.seal(Terminator{Kind: TermJump, Then: target})
}

// Branch seals the current block with a conditional branch.
func (b *Builder) Branch(cond Reg, then, els int) {
	b.seal(Terminator{Kind: TermBranch, Cond: cond, Then: then, Else: els})
}

// Return seals the current block with a return of the verdict register.
func (b *Builder) Return(verdict Reg) {
	b.seal(Terminator{Kind: TermReturn, Ret: verdict})
}

// ReturnConst seals the current block returning a constant verdict.
func (b *Builder) ReturnConst(verdict uint64) {
	r := b.Const(verdict)
	b.Return(r)
}

func (b *Builder) seal(t Terminator) {
	if b.sealed[b.cur] {
		b.fail("cir: block %d (%s) already sealed", b.cur, b.prog.Blocks[b.cur].Label)
		return
	}
	b.prog.Blocks[b.cur].Term = t
	b.sealed[b.cur] = true
}

// Program finalizes and validates the program. Unreachable blocks (dead
// code a front end legitimately produces, e.g. the post-block of a loop
// whose body always breaks) are eliminated before verification. Structural
// misuse latched during construction is reported here.
func (b *Builder) Program() (*Program, error) {
	if b.err != nil {
		return nil, b.err
	}
	for i := range b.prog.Blocks {
		if !b.sealed[i] {
			return nil, fmt.Errorf("cir: block %d (%s) has no terminator", i, b.prog.Blocks[i].Label)
		}
	}
	b.prog.NumRegs = int(b.nextReg)
	p := b.prog // copy
	removeUnreachable(&p)
	bindSlots(&p)
	if err := Verify(&p); err != nil {
		return nil, err
	}
	return &p, nil
}

// bindSlots resolves every state reference to its index in p.State. A name
// the program does not declare keeps Slot -1, which Verify reports as an
// undeclared state.
func bindSlots(p *Program) {
	for bi := range p.Blocks {
		for ii := range p.Blocks[bi].Instrs {
			in := &p.Blocks[bi].Instrs[ii]
			if in.State == "" {
				continue
			}
			in.Slot = -1
			for si := range p.State {
				if p.State[si].Name == in.State {
					in.Slot = si
					break
				}
			}
		}
	}
}

// removeUnreachable drops blocks with no path from the entry and remaps
// terminator targets.
func removeUnreachable(p *Program) {
	reach := make([]bool, len(p.Blocks))
	stack := []int{0}
	reach[0] = true
	for len(stack) > 0 {
		bi := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range p.Successors(bi) {
			if s >= 0 && s < len(reach) && !reach[s] {
				reach[s] = true
				stack = append(stack, s)
			}
		}
	}
	remap := make([]int, len(p.Blocks))
	var kept []Block
	for i := range p.Blocks {
		if reach[i] {
			remap[i] = len(kept)
			kept = append(kept, p.Blocks[i])
		} else {
			remap[i] = -1
		}
	}
	if len(kept) == len(p.Blocks) {
		return
	}
	for i := range kept {
		t := &kept[i].Term
		switch t.Kind {
		case TermJump:
			t.Then = remap[t.Then]
		case TermBranch:
			t.Then = remap[t.Then]
			t.Else = remap[t.Else]
		}
	}
	p.Blocks = kept
}

// MustProgram is Program for hand-written NFs where failure is a programmer
// error.
func (b *Builder) MustProgram() *Program {
	p, err := b.Program()
	if err != nil {
		panic(err)
	}
	return p
}

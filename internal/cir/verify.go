package cir

import (
	"errors"
	"fmt"
)

// Verify checks structural invariants of a program: branch targets in range,
// registers within NumRegs, vcalls known, state references declared, bound
// to their slots (Instr.Slot) and of the kind their vcall addresses, and the
// argument arity rules of each opcode.
// It is run on every program produced by the builder and the front end.
func Verify(p *Program) error {
	if len(p.Blocks) == 0 {
		return fmt.Errorf("cir: program %s has no blocks", p.Name)
	}
	states := map[string]int{} // name → index in p.State
	for i, s := range p.State {
		if _, dup := states[s.Name]; dup {
			return fmt.Errorf("cir: duplicate state object %q", s.Name)
		}
		if s.Capacity < 0 || s.KeySize < 0 || s.ValueSize < 0 {
			return fmt.Errorf("cir: state %q has negative geometry", s.Name)
		}
		states[s.Name] = i
	}
	for bi, blk := range p.Blocks {
		for ii := range blk.Instrs {
			in := &blk.Instrs[ii]
			if err := verifyInstr(in, p.NumRegs, states, p.State); err != nil {
				return fmt.Errorf("cir: block %d instr %d (%s): %w", bi, ii, *in, err)
			}
		}
		t := blk.Term
		switch t.Kind {
		case TermJump:
			if t.Then < 0 || t.Then >= len(p.Blocks) {
				return fmt.Errorf("cir: block %d jump target %d out of range", bi, t.Then)
			}
		case TermBranch:
			if t.Then < 0 || t.Then >= len(p.Blocks) || t.Else < 0 || t.Else >= len(p.Blocks) {
				return fmt.Errorf("cir: block %d branch targets (%d,%d) out of range", bi, t.Then, t.Else)
			}
			if err := checkReg(t.Cond, p.NumRegs); err != nil {
				return fmt.Errorf("cir: block %d terminator: %w", bi, err)
			}
			if t.Cond == NoReg {
				return fmt.Errorf("cir: block %d branch without condition register", bi)
			}
		case TermReturn:
			if err := checkReg(t.Ret, p.NumRegs); err != nil {
				return fmt.Errorf("cir: block %d terminator: %w", bi, err)
			}
		default:
			return fmt.Errorf("cir: block %d has invalid terminator kind %d", bi, t.Kind)
		}
	}
	if !allReachable(p) {
		return fmt.Errorf("cir: program %s has unreachable blocks", p.Name)
	}
	return nil
}

// verifyInstr checks one instruction's registers, arity and vcall/state
// references. The error carries no location; Verify prefixes it.
func verifyInstr(in *Instr, numRegs int, states map[string]int, objs []StateObj) error {
	if err := checkReg(in.Dst, numRegs); err != nil {
		return err
	}
	for _, a := range in.Args {
		if a == NoReg {
			return errors.New("NoReg used as operand")
		}
		if err := checkReg(a, numRegs); err != nil {
			return err
		}
	}
	if err := checkArity(in); err != nil {
		return err
	}
	if in.Op == OpVCall {
		if !in.Callee.Valid() {
			return fmt.Errorf("unknown vcall %q", in.Callee)
		}
		if VCalls[in.Callee].StateRef {
			if in.State == "" {
				return fmt.Errorf("vcall %s requires a state reference", in.Callee)
			}
			slot, ok := states[in.State]
			if !ok {
				return fmt.Errorf("vcall references undeclared state %q", in.State)
			}
			if in.Slot != slot {
				return fmt.Errorf("vcall state %q bound to slot %d, declared at %d", in.State, in.Slot, slot)
			}
			if want := VCalls[in.Callee].State; objs[slot].Kind != want {
				return fmt.Errorf("vcall %s addresses %s state, %s is %s", in.Callee, want, in.State, objs[slot].Kind)
			}
		} else if in.State != "" {
			return fmt.Errorf("vcall %s must not reference state", in.Callee)
		}
	} else if in.Callee != 0 || in.State != "" {
		return errors.New("non-vcall carries callee/state")
	}
	return nil
}

// checkReg reports a register outside [0, numRegs) (NoReg passes). The
// error carries no location; the caller prefixes it.
func checkReg(r Reg, numRegs int) error {
	if r == NoReg {
		return nil
	}
	if int(r) < 0 || int(r) >= numRegs {
		return fmt.Errorf("register %s out of range (NumRegs=%d)", r, numRegs)
	}
	return nil
}

// checkArity checks an instruction's operand shape against its opcode. The
// error carries no location; the caller prefixes it.
func checkArity(in *Instr) error {
	want := -1 // -1: no fixed arity
	switch in.Op {
	case OpNop:
		want = 0
	case OpConst:
		want = 0
	case OpCopy, OpNot:
		want = 1
	case OpAdd, OpSub, OpMul, OpDiv, OpMod, OpAnd, OpOr, OpXor, OpShl, OpShr,
		OpEq, OpNe, OpLt, OpLe, OpGt, OpGe, OpFAdd, OpFMul, OpFDiv:
		want = 2
	case OpLoad:
		want = 1
	case OpStore:
		want = 2
	case OpVCall:
		return nil
	}
	if want >= 0 && len(in.Args) != want {
		return fmt.Errorf("%s wants %d args, has %d", in.Op, want, len(in.Args))
	}
	if (in.Op == OpLoad || in.Op == OpStore) && in.Size != 1 && in.Size != 2 && in.Size != 4 && in.Size != 8 {
		return fmt.Errorf("invalid access size %d", in.Size)
	}
	if in.Op == OpStore && in.Dst != NoReg {
		return errors.New("store must not produce a value")
	}
	return nil
}

func allReachable(p *Program) bool {
	seen := make([]bool, len(p.Blocks))
	stack := []int{0}
	seen[0] = true
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		t := p.Blocks[b].Term
		var succs []int
		switch t.Kind {
		case TermJump:
			succs = []int{t.Then}
		case TermBranch:
			succs = []int{t.Then, t.Else}
		}
		for _, s := range succs {
			if s >= 0 && s < len(seen) && !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	for _, ok := range seen {
		if !ok {
			return false
		}
	}
	return true
}

// Successors returns the successor block indices of block bi.
func (p *Program) Successors(bi int) []int {
	t := p.Blocks[bi].Term
	switch t.Kind {
	case TermJump:
		return []int{t.Then}
	case TermBranch:
		if t.Then == t.Else {
			return []int{t.Then}
		}
		return []int{t.Then, t.Else}
	default:
		return nil
	}
}

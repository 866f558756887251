package cir

import "testing"

// fuzzRd consumes fuzz bytes one at a time, yielding zeros once exhausted so
// every input decodes to some program.
type fuzzRd struct {
	d []byte
	i int
}

func (r *fuzzRd) b() byte {
	if r.i >= len(r.d) {
		return 0
	}
	v := r.d[r.i]
	r.i++
	return v
}

var fuzzBinOps = []Op{
	OpAdd, OpSub, OpMul, OpDiv, OpMod, OpAnd, OpOr, OpXor, OpShl, OpShr,
	OpEq, OpNe, OpLt, OpLe, OpGt, OpGe, OpFAdd, OpFMul, OpFDiv,
}

// fuzzCallees mixes stateless vcalls with table ops against the one declared
// state object, so the generator covers the whole OpVCall shape space.
var fuzzCallees = []struct {
	name  VCall
	state string
}{
	{VCGetHdr, ""}, {VCHdrField, ""}, {VCPayloadLen, ""}, {VCPayloadByte, ""},
	{VCFlowKey, ""}, {VCHash, ""}, {VCNow, ""}, {VCRandom, ""}, {VCEmit, ""},
	{VCMapLookup, "m"}, {VCMapIncr, "m"}, {VCMapPut, "m"},
}

// genFuzzProgram decodes fuzz bytes into a verified program plus an
// adversarial step budget. Generated programs use every opcode class —
// constants, the full binary menu (division and modulo by runtime zeros
// included), unary ops, scratch loads/stores at arbitrary addresses (bounds
// faults are part of the contract under test), vcalls, mutable-slot writes —
// across several blocks wired with jumps, branches, and both return forms.
// Infinite loops are expected; the small step budget turns them into
// step-limit parity checks.
func genFuzzProgram(data []byte) (*Program, int) {
	r := &fuzzRd{d: data}
	bld := NewBuilder("fuzz")
	bld.AllocScratch(int(r.b()%5) * 8) // 0..32 bytes; 0 forces bounds faults
	bld.DeclareState(StateObj{Name: "m", Kind: StateMap, KeySize: 8, ValueSize: 16, Capacity: 64})

	nBlocks := 1 + int(r.b())%4
	blocks := []int{0}
	for i := 1; i < nBlocks; i++ {
		blocks = append(blocks, bld.NewBlock("b"))
	}

	pool := []Reg{
		bld.Const(uint64(r.b())),
		bld.Const(uint64(r.b()) << 3),
		bld.Const(uint64(r.b()) % 3), // often zero: feeds div/mod faults
	}
	pick := func() Reg { return pool[int(r.b())%len(pool)] }
	sizes := []int{1, 2, 4, 8}

	for i, blk := range blocks {
		bld.SetBlock(blk)
		for n := int(r.b()) % 6; n > 0; n-- {
			switch r.b() % 7 {
			case 0:
				pool = append(pool, bld.Const(uint64(r.b())|uint64(r.b())<<8))
			case 1:
				op := fuzzBinOps[int(r.b())%len(fuzzBinOps)]
				pool = append(pool, bld.Bin(op, pick(), pick()))
			case 2:
				pool = append(pool, bld.Not(pick()))
			case 3:
				// Mutable-slot write: the non-SSA pattern loops rely on.
				bld.CopyInto(pick(), pick())
			case 4:
				pool = append(pool, bld.Load(pick(), sizes[int(r.b())%4]))
			case 5:
				bld.Store(pick(), pick(), sizes[int(r.b())%4])
			case 6:
				c := fuzzCallees[int(r.b())%len(fuzzCallees)]
				var args []Reg
				for k := int(r.b()) % 4; k > 0; k-- {
					args = append(args, pick())
				}
				if r.b()%2 == 0 {
					pool = append(pool, bld.VCall(c.name, c.state, args...))
				} else {
					bld.VCallVoid(c.name, c.state, args...)
				}
			}
		}
		switch r.b() % 5 {
		case 0:
			bld.Jump(blocks[int(r.b())%nBlocks])
		case 1:
			bld.Branch(pick(), blocks[int(r.b())%nBlocks], blocks[int(r.b())%nBlocks])
		case 2:
			bld.Return(pick())
		case 3:
			bld.ReturnConst(uint64(r.b()) % 3)
		default:
			bld.Return(NoReg)
		}
		_ = i
	}

	maxSteps := 1 + (int(r.b())<<4|int(r.b()))%4096
	p, err := bld.Program()
	if err != nil {
		return nil, 0 // e.g. every block unreachable after pruning
	}
	return p, maxSteps
}

// fuzzOutcome is everything externally observable about one run without a
// meter: the verdict, the error text and the vcall trace (callee + evaluated
// args).
type fuzzOutcome struct {
	v       uint64
	errText string
	calls   []string
}

// FuzzCompiledVsInterp is the differential battery's randomized arm: any
// program the builder can express must produce identical (verdict, error
// string, vcall trace) tuples from the interpreter and the compiled engine,
// and under every metered hook shape identical meter bookings at every vcall
// and block entry (checkMeterParity).
func FuzzCompiledVsInterp(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{0xff, 0x00, 0xaa, 0x55, 0x12, 0x34, 0x56, 0x78, 0x9a, 0xbc, 0xde, 0xf0})
	// A longer seed so the generator reaches multi-block shapes with loops.
	long := make([]byte, 96)
	for i := range long {
		long[i] = byte(i*37 + 11)
	}
	f.Add(long)
	// Seeds kept from the removed superinstruction pass, whose pair and
	// compare+branch shapes still stress step accounting and fault text
	// (byte streams decoded by genFuzzProgram): a const+binop pair split
	// across a block boundary — the const ends block 0, the binop opens
	// block 1.
	f.Add([]byte{1, 1, 7, 3, 1, 1, 0, 9, 0, 0, 1, 1, 1, 0, 0, 1, 2, 0, 255, 255})
	// A const+binop pair in one block with maxSteps=5: block entry (1) plus
	// four consts (5) exhaust the budget exactly between the const and the
	// add.
	f.Add([]byte{1, 0, 7, 3, 1, 2, 0, 5, 0, 1, 0, 0, 1, 4, 0, 4})
	// A single-block loop ending in compare+branch back to its own head with
	// a tiny budget: the trip lands either at a block entry or on the
	// compare.
	f.Add([]byte{1, 0, 7, 3, 0, 1, 1, 10, 0, 2, 1, 3, 0, 0, 0, 9})
	// A load+binop pair whose load faults (address 7 + 8-byte width against
	// 8 scratch bytes): the fault must carry the load's own location.
	f.Add([]byte{1, 0, 7, 3, 1, 2, 4, 0, 3, 1, 0, 0, 1, 4, 255, 255})

	f.Fuzz(func(t *testing.T, data []byte) {
		prog, maxSteps := genFuzzProgram(data)
		if prog == nil {
			return
		}
		comp, err := Compile(prog)
		if err != nil {
			// Program() verified it; Compile accepts a strict superset of
			// executable programs, so rejection here is an engine bug.
			t.Fatalf("verified program failed to compile: %v\n%s", err, prog)
		}
		it := NewInterp(prog)

		run := func(engine func(Env, *Hooks) (uint64, error)) fuzzOutcome {
			env := &recordingEnv{}
			v, err := engine(env, &Hooks{MaxSteps: maxSteps})
			o := fuzzOutcome{v: v, calls: env.calls}
			if err != nil {
				o.errText = err.Error()
			}
			return o
		}
		iFast, cFast := run(it.Run), run(comp.Run)
		if iFast.errText != cFast.errText {
			t.Fatalf("fast: error diverged:\n  interp:   %q\n  compiled: %q\n%s", iFast.errText, cFast.errText, prog)
		}
		if iFast.errText == "" && iFast.v != cFast.v {
			t.Fatalf("fast: verdict diverged: interp %d, compiled %d\n%s", iFast.v, cFast.v, prog)
		}
		if len(iFast.calls) != len(cFast.calls) {
			t.Fatalf("fast: vcall count diverged: interp %d, compiled %d\n%s", len(iFast.calls), len(cFast.calls), prog)
		}
		for i := range iFast.calls {
			if iFast.calls[i] != cFast.calls[i] {
				t.Fatalf("fast: vcall %d diverged: interp %s, compiled %s\n%s", i, iFast.calls[i], cFast.calls[i], prog)
			}
		}

		// Metered arms: every hook shape production installs, the meter
		// equal bit for bit at every vcall, block entry and the end.
		checkMeterParity(t, prog, maxSteps)

		// Metering must not perturb execution: the metered run's outcome
		// is the fast run's (cancellation polling aside).
		m := meterRun(comp.Run, maxSteps, true, true)
		if m.errText != cFast.errText || (m.errText == "" && m.v != cFast.v) {
			t.Fatalf("compiled fast/metered diverged: %q/%d vs %q/%d\n%s",
				cFast.errText, cFast.v, m.errText, m.v, prog)
		}
	})
}

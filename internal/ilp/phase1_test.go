package ilp

import (
	"fmt"
	"math"
	"sync"
	"testing"
)

// phase1Model is assignModel with a binary z and an extra row
// coef·x0 + z  sense  rhs, so each input phase 1 reads can be changed on
// its own; with spare set it has one more variable, in no row. objShift is
// added to every objective coefficient, and negate flips their signs.
type phase1Model struct {
	coef, rhs, objShift float64
	sense               Sense
	spare, negate       bool
}

func (p phase1Model) build(nodes, units int) *Model {
	m := assignModel(int64(nodes*units), nodes, units)
	z := m.Binary("z")
	m.SetObjectiveTerm(z, 0.5)
	if p.spare {
		m.Binary("spare")
	}
	for v, c := range m.obj {
		c += p.objShift
		if p.negate {
			c = -c
		}
		m.SetObjectiveTerm(VarID(v), c)
	}
	m.AddConstraint("extra", []Term{{0, p.coef}, {z, 1}}, p.sense, p.rhs)
	return m
}

// checkSolveFrom solves m with SolveFrom(prev) and with Solve under a node
// budget, which bounds the search on models whose arithmetic overflows,
// fails t on any difference, and returns the snapshot and error SolveFrom
// returned.
func checkSolveFrom(t *testing.T, label string, m *Model, prev *Phase1) (*Phase1, error) {
	t.Helper()
	got, snap, gerr := m.solveFrom(2000, prev)
	want, werr := m.solve(2000, solveLP)
	if d := SameSolve(got, gerr, want, werr); d != "" {
		t.Fatalf("%s: SolveFrom vs Solve: %s\n%s", label, d, m)
	}
	return snap, gerr
}

// TestSolveFromMatchesSolve holds SolveFrom to Solve, bit for bit, when it
// starts from a snapshot of the same model, of a model whose objective
// alone differs (which must reuse the snapshot), of a model whose extra row
// is a passenger with its coefficient or rhs changed, and wins no phase-1
// ratio test (which must reuse it by replaying the pivot log; one binds in
// phase 2, so a passenger left uneliminated shows), and of a model with one
// coefficient, rhs, sense or variable count changed where that cannot be
// done (which must not), and on an infeasible root.
func TestSolveFromMatchesSolve(t *testing.T) {
	base := phase1Model{coef: 2, rhs: 2, sense: LE} // phase 1 pivots on the extra row
	far := phase1Model{coef: 0.5, rhs: 50, sense: LE}
	ge := phase1Model{coef: 0.5, rhs: 0, sense: GE}
	eq := phase1Model{coef: 0.5, rhs: 1, sense: EQ}
	variants := []struct {
		name     string
		from, p  phase1Model
		hit      bool
		replayed bool
	}{
		{"same model", base, base, true, false},
		{"objective only", base, phase1Model{coef: 2, rhs: 2, sense: LE, objShift: 1.25}, true, false},
		{"negated objective", base, phase1Model{coef: 2, rhs: 2, sense: LE, negate: true}, true, false},
		{"coefficient of a pivoted row", base, phase1Model{coef: 3, rhs: 2, sense: LE}, false, false},
		{"rhs of a pivoted row", base, phase1Model{coef: 2, rhs: 3, sense: LE}, false, false},
		{"rhs sign of zero", base, phase1Model{coef: 2, rhs: math.Copysign(0, -1), sense: GE}, false, false},
		{"variable count", base, phase1Model{coef: 2, rhs: 2, sense: LE, spare: true}, false, false},
		{"sense", base, phase1Model{coef: 2, rhs: 2, sense: EQ}, false, false},
		{"passenger coefficient", far, phase1Model{coef: 0.75, rhs: 50, sense: LE}, true, true},
		{"passenger rhs", far, phase1Model{coef: 0.5, rhs: 60, sense: LE, objShift: 0.5}, true, true},
		{"passenger binding in phase 2", far, phase1Model{coef: 0.5, rhs: 0.75, sense: LE, negate: true}, true, true},
		{"passenger wins a ratio test", far, phase1Model{coef: 0.5, rhs: 0, sense: LE}, false, false},
		{"passenger rhs turns negative", far, phase1Model{coef: -0.5, rhs: -0.25, sense: LE}, false, false},
		{"GE rhs", ge, phase1Model{coef: 0.5, rhs: 0.25, sense: GE}, false, false},
		{"EQ rhs", eq, phase1Model{coef: 0.5, rhs: 0.5, sense: EQ}, false, false},
	}
	branched := 0
	for _, size := range [][2]int{{2, 3}, {4, 4}, {6, 5}} {
		nodes, units := size[0], size[1]
		snaps := map[phase1Model]*Phase1{}
		for _, from := range []phase1Model{base, far, ge, eq} {
			prev, _ := checkSolveFrom(t, "record", from.build(nodes, units), nil)
			if prev == nil {
				t.Fatalf("%dx%d: a feasible root returned no snapshot", nodes, units)
			}
			snaps[from] = prev
		}
		if again, _ := checkSolveFrom(t, "from nil", base.build(nodes, units), nil); again == snaps[base] {
			t.Errorf("%dx%d: SolveFrom(nil) returned an earlier snapshot", nodes, units)
		}
		extra := len(base.build(nodes, units).cons) - 1
		if p := snaps[base]; p.passable != nil && p.passable.has(extra) {
			t.Fatalf("%dx%d: phase 1 never pivoted on the base model's extra row", nodes, units)
		}
		if p := snaps[far]; p.passable == nil || !p.passable.has(extra) {
			t.Fatalf("%dx%d: the far model's extra row is no passenger", nodes, units)
		}
		for _, v := range variants {
			label := fmt.Sprintf("%dx%d %s", nodes, units, v.name)
			prev := snaps[v.from]
			m := v.p.build(nodes, units)
			got, snap, err := m.solveFrom(2000, prev)
			want, werr := m.solve(2000, solveLP)
			if d := SameSolve(got, err, want, werr); d != "" {
				t.Fatalf("%s: SolveFrom vs Solve: %s\n%s", label, d, m)
			}
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if hit := snap == prev; hit != v.hit || got.Replayed != v.replayed {
				t.Errorf("%s: reused the snapshot = %v, replayed = %v; want %v, %v", label, hit, got.Replayed, v.hit, v.replayed)
			}
			if want.Nodes > 1 {
				branched++
			}
		}
	}
	if branched == 0 {
		t.Error("no case branched; children of a reused root go untested")
	}

	t.Run("infeasible root", func(t *testing.T) {
		infeasible := phase1Model{coef: 2, rhs: 9, sense: GE}
		prev, _ := checkSolveFrom(t, "record", base.build(2, 3), nil)
		if snap, _ := checkSolveFrom(t, "from a feasible snapshot", infeasible.build(2, 3), prev); snap != nil {
			t.Error("an infeasible root returned a snapshot")
		}
		if snap, _ := checkSolveFrom(t, "from nil", infeasible.build(2, 3), nil); snap != nil {
			t.Error("an infeasible root returned a snapshot")
		}
	})

	t.Run("shared snapshot", func(t *testing.T) {
		prev, _ := checkSolveFrom(t, "record", base.build(6, 5), nil)
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				p := base
				p.objShift = float64(g)
				for i := 0; i < 5; i++ {
					if snap, _ := checkSolveFrom(t, "concurrent", p.build(6, 5), prev); snap != prev {
						t.Error("an objective-only change missed the shared snapshot")
					}
				}
			}(g)
		}
		wg.Wait()
	})
}

// FuzzSolveFromMatchesSolve holds SolveFrom to Solve on random binary models
// (modelFromBytes) started from the snapshot of the same rows under another
// objective, which must be reused, and of a model built from the input with
// one byte changed, which may or may not be.
func FuzzSolveFromMatchesSolve(f *testing.F) {
	f.Add([]byte{3, 2, 7, 4, 1, 9, 200, 3, 90, 160, 250, 120}, byte(3))
	f.Add([]byte{7, 0, 70, 1, 80, 2, 3, 90, 4, 100, 5, 230, 6, 2, 1, 0, 66, 77, 88, 99, 111, 222}, byte(9))
	f.Add([]byte{5, 4, 9, 4, 7, 4, 3, 0, 0, 1, 250, 2, 100, 130, 140, 0, 1, 2, 3, 4, 5}, byte(17))
	f.Add([]byte("$002000000000\xff00AA010000\xffx00A00ax000AA00"), byte(30))
	f.Fuzz(func(t *testing.T, data []byte, at byte) {
		prev, _ := checkSolveFrom(t, "record", modelFromBytes(data), nil)

		// Same rows and bounds, objective drawn from the input reversed.
		m := modelFromBytes(data)
		rev := &byteSource{}
		for i := len(data) - 1; i >= 0; i-- {
			rev.b = append(rev.b, data[i])
		}
		for v := range m.obj {
			m.SetObjectiveTerm(VarID(v), rev.coef())
		}
		// A solve that fails returns no snapshot, hit or not.
		if snap, err := checkSolveFrom(t, "objective changed", m, prev); err == nil && prev != nil && snap != prev {
			t.Error("an objective-only change missed the snapshot")
		}

		if len(data) > 0 {
			changed := append([]byte(nil), data...)
			changed[int(at)%len(changed)] ^= 0x5a
			checkSolveFrom(t, "one byte changed", modelFromBytes(changed), prev)
		}
	})
}

// rescaled returns a copy of m whose every LE row with a non-negative rhs
// has each coefficient and its rhs multiplied by a factor from s, one of
// 1/4, 2/4, …, 16/4: rows that stay passengers of m's phase 1 where phase 1
// never pivoted on them.
func rescaled(m *Model, s *byteSource) *Model {
	out := NewModel()
	for v := range m.names {
		out.SetObjectiveTerm(out.Binary(m.names[v]), m.obj[v])
	}
	factor := func() float64 { return float64(1+s.next()%16) / 4 }
	var terms []Term
	for _, c := range m.cons {
		terms = append(terms[:0], c.terms...)
		rhs := c.rhs
		if c.sense == LE && rhs >= 0 {
			for k := range terms {
				terms[k].Coef *= factor()
			}
			rhs *= factor()
		}
		out.AddConstraint(c.name, terms, c.sense, rhs)
	}
	return out
}

// FuzzSolveFromReplay holds SolveFrom to Solve on random binary models
// (modelFromBytes) started from the snapshot of the model the input
// builds, with every LE row of a non-negative rhs rescaled by factors drawn
// from the input reversed. The snapshot is reused by replaying its pivot
// log where those rows are passengers and the replayed ratio tests pick
// the logged rows, and is missed otherwise; either way the solve must be
// Solve's, bit for bit.
func FuzzSolveFromReplay(f *testing.F) {
	f.Add([]byte{3, 2, 7, 4, 1, 9, 200, 3, 90, 160, 250, 120})
	f.Add([]byte{7, 0, 70, 1, 80, 2, 3, 90, 4, 100, 5, 230, 6, 2, 1, 0, 66, 77, 88, 99, 111, 222})
	f.Add([]byte{5, 4, 9, 4, 7, 4, 3, 0, 0, 1, 250, 2, 100, 130, 140, 0, 1, 2, 3, 4, 5})
	f.Add([]byte("$002000000000\xff00AA010000\xffx00A00ax000AA00"))
	// Rescaling its LE row c0 replays a log of three pivots.
	f.Add([]byte("\x7b\xc9\x0e\x9d\xff\x64\x96\xf1\xc9\xc8\x89\xee\xc8\xc7\x95\x4f"))
	f.Fuzz(func(t *testing.T, data []byte) {
		m := modelFromBytes(data)
		prev, _ := checkSolveFrom(t, "record", m, nil)
		rev := &byteSource{}
		for i := len(data) - 1; i >= 0; i-- {
			rev.b = append(rev.b, data[i])
		}
		checkSolveFrom(t, "rescaled", rescaled(m, rev), prev)
	})
}

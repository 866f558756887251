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
// alone differs (which must reuse the snapshot), and of a model with one
// coefficient, rhs, sense or variable count changed (which must not), and
// on an infeasible root.
func TestSolveFromMatchesSolve(t *testing.T) {
	base := phase1Model{coef: 2, rhs: 2, sense: LE}
	variants := []struct {
		name string
		p    phase1Model
		hit  bool
	}{
		{"same model", base, true},
		{"objective only", phase1Model{coef: 2, rhs: 2, sense: LE, objShift: 1.25}, true},
		{"negated objective", phase1Model{coef: 2, rhs: 2, sense: LE, negate: true}, true},
		{"coefficient", phase1Model{coef: 3, rhs: 2, sense: LE}, false},
		{"rhs", phase1Model{coef: 2, rhs: 3, sense: LE}, false},
		{"rhs sign of zero", phase1Model{coef: 2, rhs: math.Copysign(0, -1), sense: GE}, false},
		{"variable count", phase1Model{coef: 2, rhs: 2, sense: LE, spare: true}, false},
		{"sense", phase1Model{coef: 2, rhs: 2, sense: EQ}, false},
	}
	branched := 0
	for _, size := range [][2]int{{2, 3}, {4, 4}, {6, 5}} {
		nodes, units := size[0], size[1]
		prev, _ := checkSolveFrom(t, "record", base.build(nodes, units), nil)
		if prev == nil {
			t.Fatalf("%dx%d: a feasible root returned no snapshot", nodes, units)
		}
		if again, _ := checkSolveFrom(t, "from nil", base.build(nodes, units), nil); again == prev {
			t.Errorf("%dx%d: SolveFrom(nil) returned an earlier snapshot", nodes, units)
		}
		for _, v := range variants {
			label := fmt.Sprintf("%dx%d %s", nodes, units, v.name)
			m := v.p.build(nodes, units)
			snap, err := checkSolveFrom(t, label, m, prev)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if hit := snap == prev; hit != v.hit {
				t.Errorf("%s: reused the snapshot = %v, want %v", label, hit, v.hit)
			}
			if s, _ := m.Solve(); s.Nodes > 1 {
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

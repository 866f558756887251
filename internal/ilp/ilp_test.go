package ilp

import (
	"math"
	"math/rand"
	"testing"
)

func TestSimpleLP(t *testing.T) {
	// min -x - y  s.t. x+y ≤ 4, x ≤ 3, y ≤ 3 (continuous) → x=3,y=1 or x=1,y=3, obj=-4.
	m := NewModel()
	x := m.Continuous("x", 0, 3)
	y := m.Continuous("y", 0, 3)
	m.SetObjectiveTerm(x, -1)
	m.SetObjectiveTerm(y, -1)
	m.AddConstraint("cap", []Term{{x, 1}, {y, 1}}, LE, 4)
	s, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != StatusOptimal {
		t.Fatalf("status = %v", s.Status)
	}
	if math.Abs(s.Objective-(-4)) > 1e-6 {
		t.Errorf("objective = %v, want -4", s.Objective)
	}
	if math.Abs(s.Value(x)+s.Value(y)-4) > 1e-6 {
		t.Errorf("x+y = %v, want 4", s.Value(x)+s.Value(y))
	}
}

func TestMaximize(t *testing.T) {
	// max 3x + 2y s.t. x + y ≤ 4, x ≤ 2 → x=2, y=2, obj=10.
	m := NewModel()
	x := m.Continuous("x", 0, 2)
	y := m.Continuous("y", 0, math.Inf(1))
	m.SetObjectiveTerm(x, 3)
	m.SetObjectiveTerm(y, 2)
	m.AddConstraint("cap", []Term{{x, 1}, {y, 1}}, LE, 4)
	m.Maximize()
	s, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.Objective-10) > 1e-6 {
		t.Errorf("objective = %v, want 10", s.Objective)
	}
}

func TestKnapsack(t *testing.T) {
	// Classic 0/1 knapsack: weights {3,4,5,8}, values {4,5,6,10}, cap 10.
	// Optimum: items 1+2 (w=7,v=9)? vs 0+1 (w=7 v=9) vs 3 alone v=10 w=8;
	// 3+0? w=11 no. Best = item 3 + nothing else that fits except none
	// (cap 10, w3=8 leaves 2). So opt = 10? item0+item2: w=8 v=10 too.
	// item1+item2: w=9, v=11 ← best.
	m := NewModel()
	w := []float64{3, 4, 5, 8}
	v := []float64{4, 5, 6, 10}
	var vars []VarID
	var terms []Term
	for i := range w {
		x := m.Binary("x")
		vars = append(vars, x)
		m.SetObjectiveTerm(x, v[i])
		terms = append(terms, Term{x, w[i]})
	}
	m.AddConstraint("cap", terms, LE, 10)
	m.Maximize()
	s, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.Objective-11) > 1e-6 {
		t.Errorf("knapsack optimum = %v, want 11", s.Objective)
	}
	if !s.Bool(vars[1]) || !s.Bool(vars[2]) || s.Bool(vars[0]) || s.Bool(vars[3]) {
		t.Errorf("knapsack picks = %v", s.Values)
	}
}

func TestEqualityAndGE(t *testing.T) {
	// min x+2y s.t. x+y = 5, y ≥ 2 → x=3, y=2, obj=7.
	m := NewModel()
	x := m.Continuous("x", 0, math.Inf(1))
	y := m.Continuous("y", 0, math.Inf(1))
	m.SetObjectiveTerm(x, 1)
	m.SetObjectiveTerm(y, 2)
	m.AddConstraint("sum", []Term{{x, 1}, {y, 1}}, EQ, 5)
	m.AddConstraint("min-y", []Term{{y, 1}}, GE, 2)
	s, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.Objective-7) > 1e-6 {
		t.Errorf("objective = %v, want 7", s.Objective)
	}
	if math.Abs(s.Value(x)-3) > 1e-6 || math.Abs(s.Value(y)-2) > 1e-6 {
		t.Errorf("x=%v y=%v", s.Value(x), s.Value(y))
	}
}

func TestInfeasible(t *testing.T) {
	m := NewModel()
	x := m.Binary("x")
	m.AddConstraint("a", []Term{{x, 1}}, GE, 2) // x ≤ 1 as binary
	s, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != StatusInfeasible {
		t.Errorf("status = %v, want infeasible", s.Status)
	}
}

func TestInfeasibleContinuous(t *testing.T) {
	m := NewModel()
	x := m.Continuous("x", 0, 10)
	m.AddConstraint("a", []Term{{x, 1}}, GE, 5)
	m.AddConstraint("b", []Term{{x, 1}}, LE, 3)
	s, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != StatusInfeasible {
		t.Errorf("status = %v, want infeasible", s.Status)
	}
}

func TestAssignmentProblem(t *testing.T) {
	// 3 tasks × 3 machines, cost matrix; each task exactly one machine,
	// each machine at most one task. Hungarian optimum = 5 (1+1+3? check:
	// costs below: best assignment t0→m1(1), t1→m0(2), t2→m2(2) = 5).
	cost := [3][3]float64{
		{4, 1, 3},
		{2, 0, 5}, // t1→m1 is 0 but m1 taken... solver decides
		{3, 2, 2},
	}
	m := NewModel()
	var x [3][3]VarID
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			x[i][j] = m.Binary("x")
			m.SetObjectiveTerm(x[i][j], cost[i][j])
		}
	}
	for i := 0; i < 3; i++ {
		var terms []Term
		for j := 0; j < 3; j++ {
			terms = append(terms, Term{x[i][j], 1})
		}
		m.AddConstraint("task", terms, EQ, 1)
	}
	for j := 0; j < 3; j++ {
		var terms []Term
		for i := 0; i < 3; i++ {
			terms = append(terms, Term{x[i][j], 1})
		}
		m.AddConstraint("machine", terms, LE, 1)
	}
	s, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	// Optimal: t0→m1 (1) conflicts t1→m1 (0). Enumerate: permutations:
	// (m0,m1,m2): 4+0+2=6; (m0,m2,m1):4+5+2=11; (m1,m0,m2):1+2+2=5;
	// (m1,m2,m0):1+5+3=9; (m2,m0,m1):3+2+2=7; (m2,m1,m0):3+0+3=6. Min=5.
	if math.Abs(s.Objective-5) > 1e-6 {
		t.Errorf("assignment optimum = %v, want 5", s.Objective)
	}
}

func TestFix(t *testing.T) {
	m := NewModel()
	x := m.Binary("x")
	y := m.Binary("y")
	m.SetObjectiveTerm(x, 1)
	m.SetObjectiveTerm(y, 10)
	m.AddConstraint("one", []Term{{x, 1}, {y, 1}}, EQ, 1)
	m.Fix(x, 0) // force the expensive choice
	s, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if !s.Bool(y) || s.Bool(x) {
		t.Errorf("fix ignored: x=%v y=%v", s.Value(x), s.Value(y))
	}
	if s.Objective != 10 {
		t.Errorf("objective = %v", s.Objective)
	}
}

func TestSetCover(t *testing.T) {
	// Universe {1..5}; sets A={1,2,3} c=3, B={2,4} c=2, C={3,4,5} c=3,
	// D={1,5} c=2, E={1,2,3,4,5} c=6. Optimum: B+D+... B∪D={1,2,4,5} missing 3
	// → +A or C → cost 7; A+C = {1..5} cost 6; E alone cost 6. Min = 6.
	m := NewModel()
	sets := []struct {
		elems []int
		cost  float64
	}{
		{[]int{1, 2, 3}, 3}, {[]int{2, 4}, 2}, {[]int{3, 4, 5}, 3},
		{[]int{1, 5}, 2}, {[]int{1, 2, 3, 4, 5}, 6},
	}
	var vars []VarID
	for range sets {
		v := m.Binary("s")
		vars = append(vars, v)
	}
	for i, s := range sets {
		m.SetObjectiveTerm(vars[i], s.cost)
	}
	for e := 1; e <= 5; e++ {
		var terms []Term
		for i, s := range sets {
			for _, x := range s.elems {
				if x == e {
					terms = append(terms, Term{vars[i], 1})
				}
			}
		}
		m.AddConstraint("cover", terms, GE, 1)
	}
	s, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.Objective-6) > 1e-6 {
		t.Errorf("set cover optimum = %v, want 6", s.Objective)
	}
}

func TestDegenerateNoConstraints(t *testing.T) {
	m := NewModel()
	x := m.Continuous("x", 0, 5)
	m.SetObjectiveTerm(x, 1)
	s, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if s.Objective != 0 || s.Value(x) != 0 {
		t.Errorf("min over [0,5] = %v at %v", s.Objective, s.Value(x))
	}
}

func TestLowerBoundShift(t *testing.T) {
	// min x with 2 ≤ x ≤ 7 → 2.
	m := NewModel()
	x := m.Continuous("x", 2, 7)
	m.SetObjectiveTerm(x, 1)
	s, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.Value(x)-2) > 1e-9 {
		t.Errorf("x = %v, want 2", s.Value(x))
	}
}

func TestNodeLimit(t *testing.T) {
	// A model engineered to branch at least once with limit 1.
	m := NewModel()
	x := m.Binary("x")
	y := m.Binary("y")
	m.SetObjectiveTerm(x, 1)
	m.SetObjectiveTerm(y, 1)
	m.AddConstraint("frac", []Term{{x, 2}, {y, 2}}, EQ, 2)
	m.AddConstraint("tie", []Term{{x, 1}, {y, -1}}, LE, 0)
	if _, err := m.SolveWithLimit(1); err == nil {
		// The relaxation might be integral already; only fail if it also
		// reports no error with an obviously fractional relaxation.
		t.Skip("relaxation solved integrally at the root")
	}
}

// TestRandomILPAgainstBruteForce cross-checks the solver on random small
// 0/1 problems against exhaustive enumeration.
func TestRandomILPAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(5)  // 2..6 binaries
		mc := 1 + rng.Intn(4) // 1..4 constraints
		obj := make([]float64, n)
		for i := range obj {
			obj[i] = float64(rng.Intn(21) - 10)
		}
		type con struct {
			coef  []float64
			sense Sense
			rhs   float64
		}
		cons := make([]con, mc)
		for c := range cons {
			coef := make([]float64, n)
			for i := range coef {
				coef[i] = float64(rng.Intn(11) - 5)
			}
			cons[c] = con{coef, Sense(rng.Intn(3)), float64(rng.Intn(11) - 3)}
		}
		// Brute force.
		bestObj := math.Inf(1)
		feasible := false
		for mask := 0; mask < 1<<n; mask++ {
			ok := true
			for _, c := range cons {
				lhs := 0.0
				for i := 0; i < n; i++ {
					if mask&(1<<i) != 0 {
						lhs += c.coef[i]
					}
				}
				switch c.sense {
				case LE:
					ok = ok && lhs <= c.rhs+1e-9
				case GE:
					ok = ok && lhs >= c.rhs-1e-9
				case EQ:
					ok = ok && math.Abs(lhs-c.rhs) < 1e-9
				}
			}
			if !ok {
				continue
			}
			feasible = true
			v := 0.0
			for i := 0; i < n; i++ {
				if mask&(1<<i) != 0 {
					v += obj[i]
				}
			}
			if v < bestObj {
				bestObj = v
			}
		}
		// Solver.
		m := NewModel()
		vars := make([]VarID, n)
		for i := range vars {
			vars[i] = m.Binary("x")
			m.SetObjectiveTerm(vars[i], obj[i])
		}
		for ci, c := range cons {
			var terms []Term
			for i, cf := range c.coef {
				terms = append(terms, Term{vars[i], cf})
			}
			m.AddConstraint("c", terms, c.sense, c.rhs)
			_ = ci
		}
		s, err := m.Solve()
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, m)
		}
		if feasible != (s.Status == StatusOptimal) {
			t.Fatalf("trial %d: feasible=%v but status=%v\n%s", trial, feasible, s.Status, m)
		}
		if feasible && math.Abs(s.Objective-bestObj) > 1e-6 {
			t.Fatalf("trial %d: solver=%v brute=%v\n%s", trial, s.Objective, bestObj, m)
		}
	}
}

func TestModelString(t *testing.T) {
	m := NewModel()
	x := m.Binary("x0")
	m.SetObjectiveTerm(x, 2)
	m.AddConstraint("c0", []Term{{x, 1}}, LE, 1)
	s := m.String()
	if s == "" {
		t.Error("empty model string")
	}
}

func TestAddObjectiveTermAccumulates(t *testing.T) {
	m := NewModel()
	x := m.Binary("x")
	m.AddObjectiveTerm(x, 2)
	m.AddObjectiveTerm(x, 3)
	m.AddConstraint("on", []Term{{x, 1}}, EQ, 1)
	s, err := m.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if s.Objective != 5 {
		t.Errorf("objective = %v, want 5", s.Objective)
	}
}

func BenchmarkAssignment10x10(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	cost := make([][]float64, 10)
	for i := range cost {
		cost[i] = make([]float64, 10)
		for j := range cost[i] {
			cost[i][j] = float64(rng.Intn(100))
		}
	}
	for k := 0; k < b.N; k++ {
		m := NewModel()
		x := make([][]VarID, 10)
		for i := range x {
			x[i] = make([]VarID, 10)
			for j := range x[i] {
				x[i][j] = m.Binary("x")
				m.SetObjectiveTerm(x[i][j], cost[i][j])
			}
		}
		for i := 0; i < 10; i++ {
			var terms []Term
			for j := 0; j < 10; j++ {
				terms = append(terms, Term{x[i][j], 1})
			}
			m.AddConstraint("t", terms, EQ, 1)
		}
		for j := 0; j < 10; j++ {
			var terms []Term
			for i := 0; i < 10; i++ {
				terms = append(terms, Term{x[i][j], 1})
			}
			m.AddConstraint("m", terms, LE, 1)
		}
		if _, err := m.Solve(); err != nil {
			b.Fatal(err)
		}
	}
}

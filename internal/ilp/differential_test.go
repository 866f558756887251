package ilp

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// SameSolve reports how two solves of one model differ, bit for bit, or ""
// when they agree on the error, Status, Nodes, Objective and every Value.
func SameSolve(a *Solution, aerr error, b *Solution, berr error) string {
	if (aerr == nil) != (berr == nil) || (aerr != nil && aerr.Error() != berr.Error()) {
		return fmt.Sprintf("errors %v vs %v", aerr, berr)
	}
	if aerr != nil {
		return ""
	}
	if a.Status != b.Status || a.Nodes != b.Nodes {
		return fmt.Sprintf("status/nodes %v/%d vs %v/%d", a.Status, a.Nodes, b.Status, b.Nodes)
	}
	if math.Float64bits(a.Objective) != math.Float64bits(b.Objective) {
		return fmt.Sprintf("objective %v (%#x) vs %v (%#x)", a.Objective,
			math.Float64bits(a.Objective), b.Objective, math.Float64bits(b.Objective))
	}
	if len(a.Values) != len(b.Values) {
		return fmt.Sprintf("%d values vs %d", len(a.Values), len(b.Values))
	}
	for i := range a.Values {
		if math.Float64bits(a.Values[i]) != math.Float64bits(b.Values[i]) {
			return fmt.Sprintf("value %d: %v vs %v", i, a.Values[i], b.Values[i])
		}
	}
	return ""
}

// checkMatchesDense solves m with solveLP and with the dense reference
// under a node budget and fails t on any difference. The budget bounds
// the search on models whose arithmetic overflows.
func checkMatchesDense(t *testing.T, label string, m *Model) {
	t.Helper()
	got, gerr := m.solve(2000, solveLP)
	want, werr := m.solve(2000, solveLPDense)
	if d := SameSolve(got, gerr, want, werr); d != "" {
		t.Fatalf("%s: sparse vs dense: %s\n%s", label, d, m)
	}
}

// byteSource draws model parameters from fuzz input, then zeros once the
// input runs out.
type byteSource struct{ b []byte }

func (s *byteSource) next() byte {
	if len(s.b) == 0 {
		return 0
	}
	c := s.b[0]
	s.b = s.b[1:]
	return c
}

// coef maps a byte to 0, ±k/4 (k ≤ 32), ±k/3 or ±k·1e300, so pivots meet
// exact and rounded arithmetic, and overflow to infinities and NaNs.
func (s *byteSource) coef() float64 {
	c := s.next()
	switch {
	case c < 64:
		return 0
	case c < 224:
		return float64(int(c%64)-32) / 4
	case c < 248:
		return float64(int(c%24)-12) / 3
	default:
		return float64(int(c%8)-4) * 1e300
	}
}

// modelFromBytes builds a binary model under LE/GE/EQ rows with
// right-hand sides of either sign.
func modelFromBytes(data []byte) *Model {
	s := &byteSource{b: data}
	m := NewModel()
	nv := 1 + int(s.next()%8)
	for i := 0; i < nv; i++ {
		m.SetObjectiveTerm(m.Binary(fmt.Sprintf("x%d", i)), s.coef())
	}
	nc := int(s.next() % 7)
	for c := 0; c < nc; c++ {
		sense := Sense(s.next() % 3)
		var terms []Term
		for v := 0; v < nv; v++ {
			terms = append(terms, Term{VarID(v), s.coef()})
		}
		m.AddConstraint(fmt.Sprintf("c%d", c), terms, sense, float64(int(s.next())-100)/8)
	}
	return m
}

// maxDepth runs solve and returns the depth of the deepest
// branch-and-bound node it explored.
func maxDepth(solve func()) int {
	deepest := 0
	depthHook = func(d int) { deepest = max(deepest, d) }
	defer func() { depthHook = nil }()
	solve()
	return deepest
}

// TestSolveMatchesDense holds Solve to the dense-tableau reference on
// random binary models, and the search on each to a depth of at most the
// variable count.
func TestSolveMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	buf := make([]byte, 96)
	for trial := 0; trial < 3000; trial++ {
		rng.Read(buf)
		label := fmt.Sprintf("trial %d", trial)
		m := modelFromBytes(buf)
		if d := maxDepth(func() { checkMatchesDense(t, label, m) }); d > len(m.names) {
			t.Fatalf("%s: branch and bound reached depth %d with %d variables\n%s", label, d, len(m.names), m)
		}
	}
}

// TestSolveDepthBoundedOnOverflow solves a model with ±3e300 coefficients,
// whose pivots overflow and leave a fixed variable fractional, under
// Solve's own node budget: the search must stay within the variable count
// in depth and return that as an error. Branching on the fixed variable
// again, as a floor/ceiling split did, recursed until the node budget,
// and the stack overflowed first.
func TestSolveDepthBoundedOnOverflow(t *testing.T) {
	m := modelFromBytes([]byte("\xff\xd5\xf9\xab\x0e\xff\x8e\xae\xa7\x96\xfab\xfe\xfd1\xcf`\xb8\xb8\xfdid8$\be\xc3\xd2\xe4`\xf8\t\xfd;c\x9d\xb3\xb9}\xfc\xd0&\xfc\xb9\xfe\xb22\xfa\x7f\xf9\x84"))
	var err error
	if d := maxDepth(func() { _, err = m.Solve() }); d > len(m.names) {
		t.Fatalf("branch and bound reached depth %d with %d variables\n%s", d, len(m.names), m)
	}
	if err == nil || !strings.Contains(err.Error(), "fixed variable") {
		t.Fatalf("Solve: err = %v, want the fixed-variable overflow error\n%s", err, m)
	}
}

// TestSolveMatchesDenseOnOverflow covers tableaux whose entries overflow:
// an infinite or NaN multiplier turns the skipped f·0 into NaN, so both
// solvers must then update every column.
func TestSolveMatchesDenseOnOverflow(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	nonFinite := 0
	for trial := 0; trial < 4000; trial++ {
		m := overflowModel(rng)
		checkMatchesDense(t, fmt.Sprintf("trial %d", trial), m)
		if overflows(m) {
			nonFinite++
		}
	}
	if nonFinite == 0 {
		t.Error("no trial overflowed; the test no longer reaches the non-finite path")
	}
}

// overflowModel draws a small model whose coefficients span ±1e±308, so
// that pivots may overflow.
func overflowModel(rng *rand.Rand) *Model {
	m := NewModel()
	nv := 2 + rng.Intn(4)
	for i := 0; i < nv; i++ {
		v := m.Binary(fmt.Sprintf("b%d", i))
		m.SetObjectiveTerm(v, float64(rng.Intn(7)-3)*math.Pow(10, float64(rng.Intn(600)-300)))
	}
	for c := 0; c < 1+rng.Intn(4); c++ {
		var terms []Term
		for v := 0; v < nv; v++ {
			if rng.Intn(3) > 0 {
				terms = append(terms, Term{VarID(v), float64(rng.Intn(9)-4) * math.Pow(10, float64(rng.Intn(616)-308))})
			}
		}
		m.AddConstraint(fmt.Sprintf("c%d", c), terms, Sense(rng.Intn(3)),
			float64(rng.Intn(9)-4)*math.Pow(10, float64(rng.Intn(600)-300)))
	}
	return m
}

// overflows reports whether some LP relaxation that solving m meets ends
// optimal with a non-finite objective: its pivots met an infinite or NaN
// multiplier.
func overflows(m *Model) bool {
	nonFinite := false
	m.solve(2000, func(m *Model, obj, lo, hi []float64) ([]float64, float64, Status) {
		vals, objv, status := solveLP(m, obj, lo, hi)
		if status == StatusOptimal && !finite(objv) {
			nonFinite = true
		}
		return vals, objv, status
	})
	return nonFinite
}

// TestSolveMatchesDenseNegatedBounds pins rows negated by the lower-bound
// shift: a ≤ row whose rhs, less its variables' lower bounds, is negative
// must flip to ≥ and carry an artificial through phase 1, identically in
// both solvers. Row c is negative at the root; row d turns negative in the
// branch that raises x's lower bound to 1.
func TestSolveMatchesDenseNegatedBounds(t *testing.T) {
	m := NewModel()
	x := m.Binary("x")
	y := m.Binary("y")
	z := m.Binary("z")
	m.SetObjectiveTerm(x, 1)
	m.SetObjectiveTerm(y, 1.5)
	m.SetObjectiveTerm(z, -1)
	m.AddConstraint("c", []Term{{x, -2}, {y, -2}}, LE, -1)
	m.AddConstraint("d", []Term{{x, 2}, {z, 1}}, LE, 1.5)
	if s, _ := m.Solve(); s.Nodes < 3 {
		t.Fatalf("solved in %d nodes; no branch raised a lower bound", s.Nodes)
	}
	checkMatchesDense(t, "negated bounds", m)
}

func FuzzSolveMatchesDense(f *testing.F) {
	f.Add([]byte{3, 2, 7, 4, 1, 9, 200, 3, 90, 160, 250, 120})
	f.Add([]byte{7, 0, 70, 1, 80, 2, 3, 90, 4, 100, 5, 230, 6, 2, 1, 0, 66, 77, 88, 99, 111, 222})
	f.Add([]byte{5, 4, 9, 4, 7, 4, 3, 0, 0, 1, 250, 2, 100, 130, 140, 0, 1, 2, 3, 4, 5})
	// 3e+300 coefficients: an infinite multiplier meets columns the
	// eliminated row has no entry in, which the dense update turns to NaN.
	f.Add([]byte("$002000000000\xff00AA010000\xffx00A00ax000AA00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkMatchesDense(t, "fuzz", modelFromBytes(data))
		// Again right after a model of another size, so the pooled
		// workspace arrives resized and holding another solve's entries.
		if _, err := assignModel(1, 6, 5).solve(2000, solveLP); err != nil {
			t.Fatal(err)
		}
		checkMatchesDense(t, "fuzz after a larger model", modelFromBytes(data))
	})
}

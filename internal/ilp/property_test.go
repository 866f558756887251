package ilp

import (
	"math"
	"math/rand"
	"testing"
)

// TestRandomLPFeasibility builds random models that are feasible by
// construction (constraints derived from a known 0/1 point) and checks that
// the solver's optimum is 0/1, satisfies every constraint and is no worse
// than the known point.
func TestRandomLPFeasibility(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 80; trial++ {
		n := 2 + rng.Intn(4)
		m := NewModel()
		vars := make([]VarID, n)
		known := make([]float64, n)
		for i := range vars {
			vars[i] = m.Binary("x")
			known[i] = float64(rng.Intn(2))
			m.SetObjectiveTerm(vars[i], rng.Float64()*10-5)
		}
		type con struct {
			coef  []float64
			sense Sense
			rhs   float64
		}
		var cons []con
		for c := 0; c < 1+rng.Intn(4); c++ {
			coef := make([]float64, n)
			lhs := 0.0
			for i := range coef {
				coef[i] = rng.Float64()*4 - 2
				lhs += coef[i] * known[i]
			}
			// Make the known point satisfy the constraint with slack.
			var sense Sense
			var rhs float64
			switch rng.Intn(3) {
			case 0:
				sense, rhs = LE, lhs+rng.Float64()
			case 1:
				sense, rhs = GE, lhs-rng.Float64()
			default:
				sense, rhs = EQ, lhs
			}
			cons = append(cons, con{coef, sense, rhs})
			var terms []Term
			for i, cf := range coef {
				terms = append(terms, Term{vars[i], cf})
			}
			m.AddConstraint("c", terms, sense, rhs)
		}
		s, err := m.Solve()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if s.Status != StatusOptimal {
			t.Fatalf("trial %d: status %v for a feasible-by-construction LP", trial, s.Status)
		}
		// Solution must satisfy every constraint.
		for ci, c := range cons {
			lhs := 0.0
			for i, cf := range c.coef {
				lhs += cf * s.Values[vars[i]]
			}
			switch c.sense {
			case LE:
				if lhs > c.rhs+1e-5 {
					t.Fatalf("trial %d con %d: %v > %v", trial, ci, lhs, c.rhs)
				}
			case GE:
				if lhs < c.rhs-1e-5 {
					t.Fatalf("trial %d con %d: %v < %v", trial, ci, lhs, c.rhs)
				}
			case EQ:
				if math.Abs(lhs-c.rhs) > 1e-5 {
					t.Fatalf("trial %d con %d: %v != %v", trial, ci, lhs, c.rhs)
				}
			}
		}
		for i := range vars {
			if v := s.Values[vars[i]]; v != 0 && v != 1 {
				t.Fatalf("trial %d: x%d = %v, not 0/1", trial, i, v)
			}
		}
		// Optimal objective cannot exceed the known feasible point's value.
		knownObj := 0.0
		for i := range vars {
			knownObj += known[i] * objCoeff(m, vars[i])
		}
		if s.Objective > knownObj+1e-5 {
			t.Fatalf("trial %d: optimum %v worse than known point %v", trial, s.Objective, knownObj)
		}
	}
}

func objCoeff(m *Model, v VarID) float64 { return m.obj[v] }

// TestMixedIntegerRelaxationBound: the ILP optimum is never better than its
// LP relaxation, the root LP over 0 ≤ x ≤ 1, checked on random models.
func TestMixedIntegerRelaxationBound(t *testing.T) {
	for trial := 0; trial < 40; trial++ {
		r := rand.New(rand.NewSource(int64(trial)))
		m := NewModel()
		n := 2 + r.Intn(4)
		var terms []Term
		for i := 0; i < n; i++ {
			v := m.Binary("x")
			m.SetObjectiveTerm(v, float64(r.Intn(19)-9))
			terms = append(terms, Term{v, 1 + float64(r.Intn(3))/2})
		}
		// At least a weighted 1.5 must be on.
		m.AddConstraint("cover", terms, GE, 1.5)
		ilpSol, err := m.Solve()
		if err != nil {
			t.Fatal(err)
		}
		lo, hi := make([]float64, n), make([]float64, n)
		for i := range hi {
			hi[i] = 1
		}
		_, lpObj, lpStatus := solveLP(m, m.obj, lo, hi)
		if ilpSol.Status != StatusOptimal || lpStatus != StatusOptimal {
			t.Fatalf("trial %d: statuses %v/%v", trial, ilpSol.Status, lpStatus)
		}
		if ilpSol.Objective < lpObj-1e-6 {
			t.Fatalf("trial %d: ILP %v beat its LP relaxation %v", trial, ilpSol.Objective, lpObj)
		}
	}
}

// TestBinarySolutionsAreBinary: every integer variable in an optimal
// solution is integral.
func TestBinarySolutionsAreBinary(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 40; trial++ {
		m := NewModel()
		n := 3 + rng.Intn(4)
		vars := make([]VarID, n)
		var terms []Term
		for i := range vars {
			vars[i] = m.Binary("x")
			m.SetObjectiveTerm(vars[i], rng.Float64()*10-5)
			terms = append(terms, Term{vars[i], rng.Float64()*3 + 0.5})
		}
		m.AddConstraint("cap", terms, LE, rng.Float64()*float64(n))
		s, err := m.Solve()
		if err != nil {
			t.Fatal(err)
		}
		if s.Status != StatusOptimal {
			continue
		}
		for i := range vars {
			v := s.Values[vars[i]]
			if math.Abs(v-math.Round(v)) > 1e-9 {
				t.Fatalf("trial %d: binary var = %v", trial, v)
			}
		}
	}
}

// Package ilp implements a small exact solver for the 0/1 integer linear
// programs Clara's mapper produces (§3.4 of the paper: compute constraints
// Π, memory constraints Γ and switching constraints Θ solved together to
// emulate a compilation process). The solver pairs a two-phase primal
// simplex on a sparse tableau (LP relaxation, Bland's rule) with
// depth-first branch and bound.
// Mapping instances are tiny — tens of dataflow nodes against tens of LNIC
// units — so exact search is fast and dependency-free.
package ilp

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
)

// VarID names a model variable.
type VarID int

// Sense is a constraint relation.
type Sense uint8

// Constraint senses.
const (
	LE Sense = iota // ≤
	GE              // ≥
	EQ              // =
)

func (s Sense) String() string {
	switch s {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "="
	default:
		return "?"
	}
}

type variable struct {
	name    string
	integer bool
	lo, hi  float64
}

// Term is one coefficient of a constraint row.
type Term struct {
	Var  VarID
	Coef float64
}

type constraint struct {
	name  string
	terms []Term // sorted by Var, no zero coefficients
	sense Sense
	rhs   float64
}

// Namer supplies the names of variables and constraints added with an
// empty name. VarName and String consult it on demand, so a model built on
// a hot path pays for its names only when they are printed.
type Namer interface {
	VarName(VarID) string
	ConstraintName(index int) string
}

// Model is an ILP under construction. All variables are non-negative.
type Model struct {
	vars     []variable
	cons     []constraint
	terms    []Term    // arena the constraints' terms are cut from
	obj      []float64 // objective coefficient per variable
	maximize bool
	namer    Namer
}

// NewModel returns an empty minimization model.
func NewModel() *Model {
	return &Model{}
}

// SetNamer installs n as the source of names left empty at construction.
func (m *Model) SetNamer(n Namer) { m.namer = n }

// Binary adds a 0/1 variable.
func (m *Model) Binary(name string) VarID {
	return m.addVar(variable{name: name, integer: true, lo: 0, hi: 1})
}

// Continuous adds a bounded continuous variable with 0 ≤ lo ≤ x ≤ hi.
func (m *Model) Continuous(name string, lo, hi float64) VarID {
	if lo <= 0 {
		lo = 0 // also turns −0 into +0
	}
	return m.addVar(variable{name: name, lo: lo, hi: hi})
}

func (m *Model) addVar(v variable) VarID {
	m.vars = append(m.vars, v)
	m.obj = append(m.obj, 0)
	return VarID(len(m.vars) - 1)
}

// Grow reserves room for vars more variables, and for cons more
// constraints holding terms terms between them.
func (m *Model) Grow(vars, cons, terms int) {
	m.vars = slices.Grow(m.vars, vars)
	m.obj = slices.Grow(m.obj, vars)
	m.cons = slices.Grow(m.cons, cons)
	m.terms = slices.Grow(m.terms, terms)
}

// NumVars returns the variable count.
func (m *Model) NumVars() int { return len(m.vars) }

// NumConstraints returns the constraint count.
func (m *Model) NumConstraints() int { return len(m.cons) }

// VarName returns the name of v.
func (m *Model) VarName(v VarID) string {
	if name := m.vars[v].name; name != "" || m.namer == nil {
		return name
	}
	return m.namer.VarName(v)
}

func (m *Model) constraintName(i int) string {
	if name := m.cons[i].name; name != "" || m.namer == nil {
		return name
	}
	return m.namer.ConstraintName(i)
}

// SetObjectiveTerm sets the objective coefficient of v.
func (m *Model) SetObjectiveTerm(v VarID, coeff float64) {
	if coeff == 0 {
		coeff = 0 // a −0 coefficient is no coefficient
	}
	m.obj[v] = coeff
}

// AddObjectiveTerm adds coeff to v's objective coefficient.
func (m *Model) AddObjectiveTerm(v VarID, coeff float64) {
	m.SetObjectiveTerm(v, m.obj[v]+coeff)
}

// Maximize flips the model to maximization.
func (m *Model) Maximize() { m.maximize = true }

// AddConstraint adds Σ t.Coef·t.Var  sense  rhs. The terms are copied into
// the model's term arena, sorted by variable; repeated variables are summed
// and zero coefficients dropped.
func (m *Model) AddConstraint(name string, terms []Term, sense Sense, rhs float64) {
	for _, tm := range terms {
		if int(tm.Var) < 0 || int(tm.Var) >= len(m.vars) {
			panic(fmt.Sprintf("ilp: constraint %q references unknown variable %d", name, tm.Var))
		}
	}
	start := len(m.terms)
	m.terms = append(m.terms, terms...)
	t := m.terms[start:]
	byVar := func(a, b Term) int { return cmp.Compare(a.Var, b.Var) }
	if !slices.IsSortedFunc(t, byVar) {
		slices.SortStableFunc(t, byVar)
	}
	merged := t[:0]
	for _, tm := range t {
		if n := len(merged); n > 0 && merged[n-1].Var == tm.Var {
			merged[n-1].Coef += tm.Coef
		} else {
			merged = append(merged, tm)
		}
	}
	t = slices.DeleteFunc(merged, func(tm Term) bool { return tm.Coef == 0 })
	m.terms = m.terms[:start+len(t)]
	m.cons = append(m.cons, constraint{name: name, terms: t[:len(t):len(t)], sense: sense, rhs: rhs})
}

// Fix pins a variable to a value via an equality constraint (used by the
// mapper's strategy hints to emulate hand-tuning decisions).
func (m *Model) Fix(v VarID, val float64) {
	m.AddConstraint("fix:"+m.VarName(v), []Term{{v, 1}}, EQ, val)
}

// Status reports the outcome of a solve.
type Status uint8

// Solve outcomes.
const (
	StatusOptimal Status = iota
	StatusInfeasible
	StatusUnbounded
)

func (s Status) String() string {
	switch s {
	case StatusOptimal:
		return "optimal"
	case StatusInfeasible:
		return "infeasible"
	case StatusUnbounded:
		return "unbounded"
	default:
		return "unknown"
	}
}

// Solution is the result of Solve.
type Solution struct {
	Status    Status
	Objective float64
	Values    []float64
	// Nodes is the number of branch-and-bound nodes explored.
	Nodes int
}

// Value returns the solved value of v.
func (s *Solution) Value(v VarID) float64 { return s.Values[v] }

// Bool returns whether binary v is set in the solution.
func (s *Solution) Bool(v VarID) bool { return s.Values[v] > 0.5 }

// ErrNodeLimit reports branch-and-bound explosion.
var ErrNodeLimit = errors.New("ilp: branch-and-bound node limit exceeded")

// String renders the model for debugging.
func (m *Model) String() string {
	var b strings.Builder
	dir := "min"
	if m.maximize {
		dir = "max"
	}
	fmt.Fprintf(&b, "%s ", dir)
	first := true
	for v, c := range m.obj {
		if c == 0 {
			continue
		}
		if !first {
			b.WriteString(" + ")
		}
		first = false
		fmt.Fprintf(&b, "%g·%s", c, m.VarName(VarID(v)))
	}
	b.WriteString("\n")
	for ci, c := range m.cons {
		fmt.Fprintf(&b, "  %s: ", m.constraintName(ci))
		for i, t := range c.terms {
			if i > 0 {
				b.WriteString(" + ")
			}
			fmt.Fprintf(&b, "%g·%s", t.Coef, m.VarName(t.Var))
		}
		fmt.Fprintf(&b, " %s %g\n", c.sense, c.rhs)
	}
	return b.String()
}

const (
	feasTol = 1e-7
	intTol  = 1e-6
)

// Solve finds an optimal solution respecting integrality, or reports
// infeasibility/unboundedness.
func (m *Model) Solve() (*Solution, error) {
	return m.SolveWithLimit(2_000_000)
}

// SolveWithLimit is Solve with an explicit branch-and-bound node budget.
func (m *Model) SolveWithLimit(maxNodes int) (*Solution, error) {
	return m.solve(maxNodes, solveLP)
}

// SolveFrom is Solve that also returns the root LP's tableau after simplex
// phase 1, for a later SolveFrom of a model with the same rows and bounds.
// When prev was taken from a root with this model's rows and bounds, bit
// for bit, the root skips phase 1 and starts from prev, and the returned
// snapshot is prev; otherwise it is a new one, or nil when the root LP is
// infeasible. Either way the solution, its Objective bits and Nodes are
// exactly those of Solve: only the objective may differ between the two
// models, and phase 1 never reads it. Branch-and-bound children solve cold.
func (m *Model) SolveFrom(prev *Phase1) (*Solution, *Phase1, error) {
	return m.solveFrom(2_000_000, prev)
}

// solveFrom is SolveFrom with an explicit branch-and-bound node budget.
func (m *Model) solveFrom(maxNodes int, prev *Phase1) (*Solution, *Phase1, error) {
	var snap *Phase1
	root := func(m *Model, obj, lo, hi []float64) ([]float64, float64, Status) {
		vals, objv, status, s := solveLPFrom(m, obj, lo, hi, prev, true)
		snap = s
		return vals, objv, status
	}
	sol, err := m.solveRoot(maxNodes, root, solveLP)
	if err != nil {
		return nil, nil, err
	}
	return sol, snap, nil
}

// lpSolver solves the LP relaxation of m minimizing obj under the bounds
// lo ≤ x ≤ hi, returning the values, the objective and the status.
type lpSolver func(m *Model, obj, lo, hi []float64) ([]float64, float64, Status)

// solve runs branch and bound with lp solving each node's relaxation.
func (m *Model) solve(maxNodes int, lp lpSolver) (*Solution, error) {
	return m.solveRoot(maxNodes, lp, lp)
}

// solveRoot is solve with root solving the root node's relaxation.
func (m *Model) solveRoot(maxNodes int, root, lp lpSolver) (*Solution, error) {
	// Internally always minimize.
	obj := make([]float64, len(m.vars))
	for v, c := range m.obj {
		if c == 0 {
			continue // leave +0: negating it would give −0
		}
		if m.maximize {
			obj[v] = -c
		} else {
			obj[v] = c
		}
	}
	bb := &bnb{m: m, root: root, lp: lp, obj: obj, best: math.Inf(1), maxNodes: maxNodes}
	lo := make([]float64, len(m.vars))
	hi := make([]float64, len(m.vars))
	for i, v := range m.vars {
		lo[i], hi[i] = v.lo, v.hi
	}
	if err := bb.search(lo, hi); err != nil {
		return nil, err
	}
	if bb.bestVals == nil {
		return &Solution{Status: StatusInfeasible, Nodes: bb.nodes}, nil
	}
	objv := bb.best
	if m.maximize {
		objv = -objv
	}
	return &Solution{Status: StatusOptimal, Objective: objv, Values: bb.bestVals, Nodes: bb.nodes}, nil
}

type bnb struct {
	m        *Model
	root, lp lpSolver
	obj      []float64
	best     float64
	bestVals []float64
	nodes    int
	maxNodes int
}

func (b *bnb) search(lo, hi []float64) error {
	b.nodes++
	if b.nodes > b.maxNodes {
		return ErrNodeLimit
	}
	lp := b.lp
	if b.nodes == 1 {
		lp = b.root
	}
	vals, objv, status := lp(b.m, b.obj, lo, hi)
	switch status {
	case StatusInfeasible:
		return nil
	case StatusUnbounded:
		// With bounded variables the relaxation cannot be unbounded unless
		// a continuous variable has an infinite bound.
		return errors.New("ilp: LP relaxation unbounded")
	}
	if objv >= b.best-1e-9 {
		return nil // bound: cannot improve on incumbent
	}
	// Find the most fractional integer variable.
	frac := -1
	fracDist := 0.0
	for i, v := range b.m.vars {
		if !v.integer {
			continue
		}
		f := vals[i] - math.Floor(vals[i])
		d := math.Min(f, 1-f)
		if d > intTol && d > fracDist {
			fracDist = d
			frac = i
		}
	}
	if frac == -1 {
		// Integral: new incumbent.
		if objv < b.best {
			b.best = objv
			b.bestVals = append([]float64(nil), vals...)
			// Round integers exactly.
			for i, v := range b.m.vars {
				if v.integer {
					b.bestVals[i] = math.Round(b.bestVals[i])
				}
			}
		}
		return nil
	}
	// Branch: explore the side nearest the fractional value first.
	floorV := math.Floor(vals[frac])
	lo2 := append([]float64(nil), lo...)
	hi2 := append([]float64(nil), hi...)
	down := func() error {
		hi2[frac] = floorV
		defer func() { hi2[frac] = hi[frac] }()
		return b.search(lo2, hi2)
	}
	up := func() error {
		lo2[frac] = floorV + 1
		defer func() { lo2[frac] = lo[frac] }()
		return b.search(lo2, hi2)
	}
	if vals[frac]-floorV > 0.5 {
		if err := up(); err != nil {
			return err
		}
		return down()
	}
	if err := down(); err != nil {
		return err
	}
	return up()
}

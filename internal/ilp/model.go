// Package ilp implements a small exact solver for the binary minimisation
// programs Clara's mapper produces (§3.4 of the paper: compute constraints
// Π, memory constraints Γ and switching constraints Θ solved together to
// emulate a compilation process): every variable is 0/1 and the objective
// is minimised. The solver pairs a two-phase primal simplex on a sparse
// tableau (LP relaxation, Bland's rule) with depth-first branch and bound,
// whose every branch fixes a free variable, so the search is at most as
// deep as the model has variables.
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

// Model is a binary minimisation ILP under construction.
type Model struct {
	names []string // variable names
	cons  []constraint
	terms []Term    // arena the constraints' terms are cut from
	obj   []float64 // objective coefficient per variable
	namer Namer
}

// NewModel returns an empty model.
func NewModel() *Model {
	return &Model{}
}

// SetNamer installs n as the source of names left empty at construction.
func (m *Model) SetNamer(n Namer) { m.namer = n }

// Binary adds a 0/1 variable.
func (m *Model) Binary(name string) VarID {
	m.names = append(m.names, name)
	m.obj = append(m.obj, 0)
	return VarID(len(m.names) - 1)
}

// Grow reserves room for vars more variables, and for cons more
// constraints holding terms terms between them.
func (m *Model) Grow(vars, cons, terms int) {
	m.names = slices.Grow(m.names, vars)
	m.obj = slices.Grow(m.obj, vars)
	m.cons = slices.Grow(m.cons, cons)
	m.terms = slices.Grow(m.terms, terms)
}

// VarName returns the name of v.
func (m *Model) VarName(v VarID) string {
	if name := m.names[v]; name != "" || m.namer == nil {
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

// AddConstraint adds Σ t.Coef·t.Var  sense  rhs. The terms are copied into
// the model's term arena, sorted by variable; repeated variables are summed
// and zero coefficients dropped.
func (m *Model) AddConstraint(name string, terms []Term, sense Sense, rhs float64) {
	for _, tm := range terms {
		if int(tm.Var) < 0 || int(tm.Var) >= len(m.names) {
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
	// Replayed is set when SolveFrom's root started from its snapshot
	// after rebuilding at least one passenger row (Phase1).
	Replayed bool
}

// Bool returns whether binary v is set in the solution.
func (s *Solution) Bool(v VarID) bool { return s.Values[v] > 0.5 }

// ErrNodeLimit reports branch-and-bound explosion.
var ErrNodeLimit = errors.New("ilp: branch-and-bound node limit exceeded")

// String renders the model for debugging.
func (m *Model) String() string {
	var b strings.Builder
	b.WriteString("min ")
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
	// nodeBudget is the branch-and-bound node budget of Solve and SolveFrom.
	nodeBudget = 2_000_000
)

// Solve finds an optimal solution, or reports infeasibility.
func (m *Model) Solve() (*Solution, error) {
	return m.solve(nodeBudget, solveLP)
}

// SolveFrom is Solve that also returns the root LP's tableau after simplex
// phase 1, for a later SolveFrom of a model with the same rows. When prev
// was taken from a root whose rows equal this model's bit for bit, or
// differ only in passenger rows (Phase1), the root skips phase 1 and starts
// from prev, and the returned snapshot is prev; otherwise it is a new one,
// or nil when the root LP is infeasible. Either way the solution, its
// Objective bits and Nodes are exactly those of Solve: phase 1 never reads
// the objective, and a passenger row changes no other row of its tableau.
// Branch-and-bound children solve cold.
func (m *Model) SolveFrom(prev *Phase1) (*Solution, *Phase1, error) {
	return m.solveFrom(nodeBudget, prev)
}

// solveFrom is SolveFrom with an explicit branch-and-bound node budget.
func (m *Model) solveFrom(maxNodes int, prev *Phase1) (*Solution, *Phase1, error) {
	var snap *Phase1
	var replayed bool
	root := func(m *Model, obj, lo, hi []float64) ([]float64, float64, Status) {
		vals, objv, status, s, r := solveLPFrom(m, obj, lo, hi, prev, true)
		snap, replayed = s, r
		return vals, objv, status
	}
	sol, err := m.solveRoot(maxNodes, root, solveLP)
	if err != nil {
		return nil, nil, err
	}
	sol.Replayed = replayed
	return sol, snap, nil
}

// lpSolver solves the LP relaxation of m minimizing obj under the bounds
// lo ≤ x ≤ hi, returning the values, the objective and the status.
type lpSolver func(m *Model, obj, lo, hi []float64) ([]float64, float64, Status)

// solve runs branch and bound with lp solving each node's relaxation.
func (m *Model) solve(maxNodes int, lp lpSolver) (*Solution, error) {
	return m.solveRoot(maxNodes, lp, lp)
}

// solveRoot is solve with root solving the root node's relaxation, whose
// bounds are 0 ≤ x ≤ 1 for every variable.
func (m *Model) solveRoot(maxNodes int, root, lp lpSolver) (*Solution, error) {
	bb := &bnb{m: m, root: root, lp: lp, best: math.Inf(1), maxNodes: maxNodes}
	lo := make([]float64, len(m.names))
	hi := make([]float64, len(m.names))
	for i := range hi {
		hi[i] = 1
	}
	if err := bb.search(lo, hi, 0); err != nil {
		return nil, err
	}
	if bb.bestVals == nil {
		return &Solution{Status: StatusInfeasible, Nodes: bb.nodes}, nil
	}
	return &Solution{Status: StatusOptimal, Objective: bb.best, Values: bb.bestVals, Nodes: bb.nodes}, nil
}

// satisfies reports whether x satisfies every row of m within feasTol. A
// row whose sum is not finite is violated.
func (m *Model) satisfies(x []float64) bool {
	for ci := range m.cons {
		c := &m.cons[ci]
		sum := 0.0
		for _, tm := range c.terms {
			sum += tm.Coef * x[tm.Var]
		}
		var ok bool
		switch c.sense {
		case LE:
			ok = sum <= c.rhs+feasTol
		case GE:
			ok = sum >= c.rhs-feasTol
		default:
			ok = math.Abs(sum-c.rhs) <= feasTol
		}
		if !ok || !finite(sum) {
			return false
		}
	}
	return true
}

type bnb struct {
	m        *Model
	root, lp lpSolver
	best     float64
	bestVals []float64
	nodes    int
	maxNodes int
}

// depthHook, when set, is called with the depth of every branch-and-bound
// node, the root's being 0. Only tests set it.
var depthHook func(depth int)

// search explores the node with bounds lo/hi at the given depth. Each
// branch fixes a free variable (lo 0, hi 1) to 0 or to 1, so depth never
// exceeds the variable count.
func (b *bnb) search(lo, hi []float64, depth int) error {
	b.nodes++
	if b.nodes > b.maxNodes {
		return ErrNodeLimit
	}
	if depthHook != nil {
		depthHook(depth)
	}
	lp := b.lp
	if b.nodes == 1 {
		lp = b.root
	}
	vals, objv, status := lp(b.m, b.m.obj, lo, hi)
	switch status {
	case StatusInfeasible:
		return nil
	case StatusUnbounded:
		// Every variable lies in [0, 1], so only overflowing arithmetic
		// leaves the relaxation unbounded.
		return errors.New("ilp: LP relaxation unbounded")
	}
	if objv >= b.best-1e-9 {
		return nil // bound: cannot improve on incumbent
	}
	// Find the most fractional variable.
	frac := -1
	fracDist := 0.0
	for i, v := range vals {
		f := v - math.Floor(v)
		d := math.Min(f, 1-f)
		if d > intTol && d > fracDist {
			fracDist = d
			frac = i
		}
	}
	if frac == -1 {
		// Integral: a new incumbent, unless its rounded values break a
		// row, as they may when overflowing pivots end phase 1 at a point
		// that is not feasible.
		if objv < b.best {
			x := make([]float64, len(vals))
			for i, v := range vals {
				x[i] = math.Round(v)
			}
			if b.m.satisfies(x) {
				b.best, b.bestVals = objv, x
			}
		}
		return nil
	}
	if lo[frac] == hi[frac] {
		// Only overflowing arithmetic leaves a fixed variable fractional,
		// and no branch would fix anything new.
		return errors.New("ilp: fractional value on a fixed variable (numerical overflow)")
	}
	// Branch: fix the variable to 0 and to 1, the side nearest its
	// fractional value first.
	lo2 := append([]float64(nil), lo...)
	hi2 := append([]float64(nil), hi...)
	down := func() error {
		hi2[frac] = 0
		defer func() { hi2[frac] = hi[frac] }()
		return b.search(lo2, hi2, depth+1)
	}
	up := func() error {
		lo2[frac] = 1
		defer func() { lo2[frac] = lo[frac] }()
		return b.search(lo2, hi2, depth+1)
	}
	if vals[frac] > 0.5 {
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

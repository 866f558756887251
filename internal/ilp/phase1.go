package ilp

import "math"

// Phase1 is an immutable snapshot of a root LP relaxation after simplex
// phase 1, together with the model's constraint rows that produced it,
// held by reference because a model's rows never change once added. Phase 1
// reads only those rows and the root bounds, 0 ≤ x ≤ 1 for every variable,
// never the objective, so any later root with as many variables whose every
// term, sense and rhs equals them bit for bit reaches this very tableau,
// and SolveFrom starts it at phase 2.
//
// A snapshot is never written after it is taken: a solve that reuses it
// copies it into its own workspace, so one snapshot may serve any number of
// concurrent solves.
type Phase1 struct {
	cons []constraint

	n, nSlack, total, words int
	entries                 []entry // every row's entries, back to back
	rowEnd                  []int   // row i holds entries[rowEnd[i-1]:rowEnd[i]]
	rhs                     []float64
	cols                    []uint64
	basis                   []int
}

// matches reports whether the root LP of m has the inputs p was taken
// from, bit for bit. A nil p matches nothing.
func (p *Phase1) matches(m *Model) bool {
	if p == nil || len(m.names) != p.n || len(m.cons) != len(p.cons) {
		return false
	}
	for ci := range m.cons {
		a, b := &m.cons[ci], &p.cons[ci]
		if a.sense != b.sense || math.Float64bits(a.rhs) != math.Float64bits(b.rhs) || len(a.terms) != len(b.terms) {
			return false
		}
		for k, tm := range a.terms {
			if tm.Var != b.terms[k].Var || math.Float64bits(tm.Coef) != math.Float64bits(b.terms[k].Coef) {
				return false
			}
		}
	}
	return true
}

// snapshot copies t, just after phase 1 of m's root LP, into a new Phase1.
func (t *tableau) snapshot(m *Model) *Phase1 {
	size := 0
	for _, r := range t.rows {
		size += len(r)
	}
	p := &Phase1{
		cons: m.cons[:len(m.cons):len(m.cons)],
		n:    t.n, nSlack: t.nSlack, total: t.total, words: t.words,
		entries: make([]entry, 0, size),
		rowEnd:  make([]int, len(t.rows)),
		rhs:     append([]float64(nil), t.rhs...),
		cols:    append([]uint64(nil), t.cols...),
		basis:   append([]int(nil), t.basis...),
	}
	for i, r := range t.rows {
		p.entries = append(p.entries, r...)
		p.rowEnd[i] = len(p.entries)
	}
	return p
}

// load copies p into t, leaving t as phase 1 left the tableau p was taken
// from: the same rows with their entries in the same order, the same rhs,
// column sets and basis, and a zero pivot row. The objective row is left
// for phase 2 to clear.
func (p *Phase1) load(t *tableau) {
	t.n, t.nSlack, t.total, t.words = p.n, p.nSlack, p.total, p.words
	t.rhs = append(t.rhs[:0], p.rhs...)
	t.cols = append(t.cols[:0], p.cols...)
	t.basis = append(t.basis[:0], p.basis...)
	t.obj = resize(t.obj, p.total+1)
	t.prow = resize(t.prow, p.total)
	clear(t.prow)
	t.slab = append(t.slab[:0], p.entries...)
	t.spill = t.spill[:0]
	t.rows = resize(t.rows, len(p.rowEnd))
	start := 0
	for i, end := range p.rowEnd {
		t.rows[i] = t.slab[start:end:end]
		start = end
	}
}

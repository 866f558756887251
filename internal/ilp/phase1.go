package ilp

import (
	"math"
	"slices"
)

// Phase1 is an immutable snapshot of a root LP relaxation after simplex
// phase 1, together with the model's constraint rows that produced it,
// held by reference because a model's rows never change once added, and
// the log of phase 1's pivots. Phase 1 reads only those rows and the root
// bounds, 0 ≤ x ≤ 1 for every variable, never the objective.
//
// A later root with as many variables and rows starts from the snapshot
// when each of its rows either equals the recorded one bit for bit or is a
// passenger: an LE row with a non-negative rhs, in both models, that phase
// 1 never pivoted on. A passenger's slack stays basic through phase 1, and
// the row never feeds the phase-1 objective, the entering column or any
// other row; it only takes part in the ratio tests. So the loader copies
// the fixed rows, rebuilds each passenger from the new model, and walks
// the log: it re-runs every logged ratio test with the passengers' new
// candidates, falling back to a cold phase 1 unless the test picks the
// logged row, and eliminates the passengers against each logged pivot row.
// The tableau phase 2 starts from is then the one a cold solve reaches.
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

	// passable marks the model rows that may be passengers; nil when none
	// may, and then log is empty.
	passable bitset
	log      pivotLog
}

// pivotLog records phase 1's pivots in order: each pivot row as it was
// normalised, and each simplex pivot's ratio-test candidates.
type pivotLog struct {
	pivots []loggedPivot
	ent    []entry     // the normalised pivot rows, back to back
	cand   []candidate // the ratio tests' candidates, back to back
}

// loggedPivot is one pivot of phase 1 on (row, col). Its normalised pivot
// row is the log's ent up to ent, from the previous pivot's ent; its
// ratio test's candidates likewise end at cand. An artificial pivot-out
// ran no ratio test.
type loggedPivot struct {
	row, col, ent, cand int32
	rhs                 float64 // the pivot row's rhs, normalised
	pivotOut            bool
}

// candidate is one row a ratio test offered, in row order.
type candidate struct {
	row, basis int32
	ratio      float64
}

func (l *pivotLog) reset() {
	l.pivots, l.ent, l.cand = l.pivots[:0], l.ent[:0], l.cand[:0]
}

// record appends t's pivot on (pr, pc), just made, to the log.
func (l *pivotLog) record(t *tableau, pr, pc int, pivotOut bool) {
	l.ent = append(l.ent, t.rows[pr]...)
	l.pivots = append(l.pivots, loggedPivot{row: int32(pr), col: int32(pc), rhs: t.rhs[pr],
		ent: int32(len(l.ent)), cand: int32(len(l.cand)), pivotOut: pivotOut})
}

// clone returns a copy of l that holds no spare capacity.
func (l *pivotLog) clone() pivotLog {
	return pivotLog{
		pivots: append([]loggedPivot(nil), l.pivots...),
		ent:    append([]entry(nil), l.ent...),
		cand:   append([]candidate(nil), l.cand...),
	}
}

// sameRow reports whether two constraint rows are equal bit for bit.
func sameRow(a, b *constraint) bool {
	if a.sense != b.sense || math.Float64bits(a.rhs) != math.Float64bits(b.rhs) || len(a.terms) != len(b.terms) {
		return false
	}
	for k, tm := range a.terms {
		if tm.Var != b.terms[k].Var || math.Float64bits(tm.Coef) != math.Float64bits(b.terms[k].Coef) {
			return false
		}
	}
	return true
}

// snapshot copies t, just after a recorded phase 1 of m's root LP under
// the lower bounds lo, into a new Phase1.
func (t *tableau) snapshot(m *Model, lo []float64) *Phase1 {
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
	passable := make(bitset, (len(m.cons)+63)/64)
	for ci := range m.cons {
		if c := &m.cons[ci]; c.sense == LE && c.shiftedRHS(lo) >= 0 {
			passable.add(ci)
		}
	}
	for _, pv := range t.log.pivots {
		if int(pv.row) < len(m.cons) {
			passable.remove(int(pv.row))
		}
	}
	if slices.ContainsFunc(passable, func(w uint64) bool { return w != 0 }) {
		p.passable = passable
		p.log = t.log.clone()
	}
	return p
}

// load leaves t as phase 1 of m's root LP, under the lower bounds lo,
// would: it copies p when m's rows differ from p's only in passengers, and
// replays the log on those. It reports whether it did, and whether any row
// was a passenger; on false, t holds no usable tableau. A nil p loads
// nothing.
func (p *Phase1) load(t *tableau, m *Model, lo []float64) (hit, replayed bool) {
	if p == nil || len(m.names) != p.n || len(m.cons) != len(p.cons) {
		return false, false
	}
	t.pass = t.pass[:0]
	for ci := range m.cons {
		c := &m.cons[ci]
		if sameRow(c, &p.cons[ci]) {
			continue
		}
		if p.passable == nil || !p.passable.has(ci) || c.sense != LE || !(c.shiftedRHS(lo) >= 0) {
			return false, false
		}
		t.pass = append(t.pass, ci)
	}
	p.copyTo(t)
	if len(t.pass) == 0 {
		return true, false
	}
	for _, i := range t.pass {
		t.rebuild(i, &m.cons[i], lo, p.basis[i])
	}
	return t.replay(&p.log), true
}

// copyTo copies p into t, leaving t as phase 1 left the tableau p was
// taken from: the same rows with their entries in the same order, the same
// rhs, column sets and basis, and a zero pivot row. The objective row is
// left for phase 2 to clear.
func (p *Phase1) copyTo(t *tableau) {
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

// rebuild writes row i anew as phase 1 builds it from constraint c, an LE
// row with a non-negative rhs under the lower bounds lo: its terms, then
// its basic slack column.
func (t *tableau) rebuild(i int, c *constraint, lo []float64, slack int) {
	r := t.carve(len(c.terms) + 1)
	for _, tm := range c.terms {
		r = append(r, entry{int(tm.Var), tm.Coef})
	}
	r = append(r, entry{slack, 1})
	cols := t.colsOf(i)
	clear(cols)
	for _, e := range r {
		cols.add(e.j)
	}
	t.rows[i] = r
	t.rhs[i] = c.shiftedRHS(lo)
}

// replay carries the passenger rows t.pass through the logged pivots, as
// a cold phase 1 would: before each simplex pivot it re-runs the ratio
// test and reports false unless the test picks the logged row, and it
// eliminates each passenger against the logged pivot row.
func (t *tableau) replay(l *pivotLog) bool {
	var ent, cand int32
	for _, pv := range l.pivots {
		p, pc := l.ent[ent:pv.ent], int(pv.col)
		if !pv.pivotOut && t.rescan(l.cand[cand:pv.cand], pc) != int(pv.row) {
			return false
		}
		ent, cand = pv.ent, pv.cand
		for _, e := range p {
			t.prow[e.j] = e.v
		}
		for _, i := range t.pass {
			if t.has(i, pc) {
				if f := t.at(i, pc); f != 0 {
					t.eliminate(i, f, p, pv.rhs)
				}
			}
		}
		for _, e := range p {
			t.prow[e.j] = 0
		}
	}
	return true
}

// rescan re-runs a logged ratio test on entering column pc and returns the
// row it picks. It offers, in row order, the logged candidates of the
// fixed rows and the passengers' candidates as the tableau now holds them.
func (t *tableau) rescan(logged []candidate, pc int) int {
	sc := newRatioScan()
	pass, k := t.pass, 0
	// offerPassengers offers the passengers in rows up to row.
	offerPassengers := func(row int) {
		for ; k < len(pass) && pass[k] <= row; k++ {
			if ratio, ok := t.ratio(pass[k], pc); ok {
				sc.offer(pass[k], ratio, t.basis[pass[k]])
			}
		}
	}
	for _, c := range logged {
		offerPassengers(int(c.row))
		if k > 0 && pass[k-1] == int(c.row) {
			continue // a passenger's stale candidate
		}
		sc.offer(int(c.row), c.ratio, int(c.basis))
	}
	offerPassengers(len(t.rows))
	return sc.row
}

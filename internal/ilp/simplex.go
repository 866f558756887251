package ilp

import (
	"math"
	"slices"
	"sync"
)

// solveLP solves the LP relaxation of m with objective obj (minimize) and
// per-variable bounds lo/hi. It returns variable values in the model's
// original space, the objective value, and a status.
//
// The implementation is a two-phase primal simplex on the full tableau with
// Bland's anti-cycling rule. Variables are shifted by their lower bounds;
// each upper bound becomes an explicit row x_k + s_k = hi_k − lo_k. The
// tableau stores only nonzero entries, and a pivot computes only the
// columns where the pivot row is nonzero (see tableau). That skips nothing
// but subtractions of an exact zero, so every pivot, and every nonzero
// tableau entry, is the one the dense tableau (reference_test.go) produces;
// at most the sign of a zero entry differs.
//
// The tableau's storage comes from tableauPool and goes back to it when the
// solve returns; only the returned values are allocated per call.
func solveLP(m *Model, obj, lo, hi []float64) ([]float64, float64, Status) {
	vals, objv, status, _, _ := solveLPFrom(m, obj, lo, hi, nil, false)
	return vals, objv, status
}

// solveLPFrom is solveLP starting from prev: when prev was taken from an LP
// whose rows equal this one's, or differ only in passenger rows (Phase1),
// the tableau is loaded from it, its passenger rows are replayed, and phase
// 1 is skipped. Phase 1 never reads the objective, so the tableau phase 2
// starts from, and everything after, is the one a cold solve reaches. A
// snapshot holds no bounds, so prev may be given only for a root LP, whose
// bounds are 0 ≤ x ≤ 1. With record set it also returns the LP's tableau
// after phase 1: prev itself on a hit, a new snapshot otherwise, and nil
// when the LP is infeasible; replayed reports a hit that rebuilt at least
// one passenger row.
func solveLPFrom(m *Model, obj, lo, hi []float64, prev *Phase1, record bool) (vals []float64, objv float64, status Status, snap *Phase1, replayed bool) {
	n := len(m.names)
	t := tableauPool.Get().(*tableau)
	defer t.release()
	if hit, rebuilt := prev.load(t, m, lo); hit {
		snap, replayed = prev, rebuilt
	} else {
		t.rec = record
		t.log.reset()
		ok := t.phase1(m, lo, hi)
		t.rec = false
		if !ok {
			return nil, 0, StatusInfeasible, nil, false
		}
		if record {
			snap = t.snapshot(m, lo)
		}
	}
	nSlack, mRows := t.nSlack, len(t.rows)

	// Phase 2: real objective over structural columns; artificials barred.
	clear(t.obj)
	copy(t.obj, obj[:n])
	// Reduce objective row against the current basis.
	for i := 0; i < mRows; i++ {
		if f := t.obj[t.basis[i]]; f != 0 {
			t.subRow(f, i)
		}
	}
	if t.simplex(n+nSlack) == StatusUnbounded {
		return nil, 0, StatusUnbounded, snap, replayed
	}

	// Extract solution (shift lower bounds back in).
	vals = make([]float64, n)
	for i := 0; i < mRows; i++ {
		if t.basis[i] < n {
			vals[t.basis[i]] = t.rhs[i]
		}
	}
	for i := 0; i < n; i++ {
		vals[i] += lo[i]
		if vals[i] < lo[i] {
			vals[i] = lo[i]
		}
		objv += obj[i] * vals[i]
	}
	return vals, objv, StatusOptimal, snap, replayed
}

// phase1 builds the tableau of m's LP relaxation under the bounds lo/hi
// and drives its artificials out of the basis. It reads no objective. It
// reports false when the LP is infeasible.
func (t *tableau) phase1(m *Model, lo, hi []float64) bool {
	n := len(m.names)
	// Shifted right-hand sides: model rows, then one upper-bound row per
	// variable. A negative one flips its row's sense, which decides the
	// column layout before any row is written.
	nCons := len(m.cons)
	rhs := slices.Grow(t.rhs[:0], nCons+n)[:nCons]
	for ci := range m.cons {
		rhs[ci] = m.cons[ci].shiftedRHS(lo)
	}
	for k := 0; k < n; k++ {
		rhs = append(rhs, hi[k]-lo[k])
	}
	mRows := len(rhs)
	sense := func(i int) Sense {
		s := LE
		if i < nCons {
			s = m.cons[i].sense
		}
		if rhs[i] < 0 {
			switch s {
			case LE:
				s = GE
			case GE:
				s = LE
			}
		}
		return s
	}
	// Column layout: [structural n][slack/surplus s][artificial a][rhs].
	nSlack, nArt := 0, 0
	for i := 0; i < mRows; i++ {
		s := sense(i)
		if s != EQ {
			nSlack++
		}
		if s != LE {
			nArt++
		}
	}
	total := n + nSlack + nArt
	words := (total + 63) / 64
	t.rows = resize(t.rows, mRows)
	t.rhs = rhs
	t.cols = resize(t.cols, mRows*words)
	clear(t.cols)
	t.words = words
	t.obj = resize(t.obj, total+1)
	clear(t.obj)
	t.basis = resize(t.basis, mRows)
	t.n, t.nSlack, t.total = n, nSlack, total
	t.prow = resize(t.prow, total)
	clear(t.prow)
	// Every row's initial entries go into one slab; a row that outgrows
	// its share on a pivot moves to the spill slab (carve).
	size := 3 * mRows
	for _, c := range m.cons {
		size += len(c.terms)
	}
	slab := slices.Grow(t.slab[:0], size)
	t.slab = slab
	t.spill = t.spill[:0]
	slackIdx, artIdx := n, n+nSlack
	for i := 0; i < mRows; i++ {
		s, sign := sense(i), 1.0
		if rhs[i] < 0 {
			sign, rhs[i] = -1, -rhs[i]
		}
		start := len(slab)
		if i < nCons {
			for _, tm := range m.cons[i].terms {
				slab = append(slab, entry{int(tm.Var), sign * tm.Coef})
			}
		} else {
			slab = append(slab, entry{i - nCons, sign})
		}
		switch s {
		case LE:
			slab = append(slab, entry{slackIdx, 1})
			t.basis[i] = slackIdx
			slackIdx++
		case GE:
			slab = append(slab, entry{slackIdx, -1}, entry{artIdx, 1})
			t.basis[i] = artIdx
			slackIdx++
			artIdx++
		case EQ:
			slab = append(slab, entry{artIdx, 1})
			t.basis[i] = artIdx
			artIdx++
		}
		t.rows[i] = slab[start:len(slab):len(slab)]
		for _, e := range t.rows[i] {
			t.colsOf(i).add(e.j)
		}
	}

	// Phase 1: minimize the sum of artificials.
	if nArt > 0 {
		for j := n + nSlack; j < total; j++ {
			t.obj[j] = 1
		}
		// Make the objective row consistent with the basic artificials.
		for i := 0; i < mRows; i++ {
			if t.basis[i] >= n+nSlack {
				t.subRow(1, i)
			}
		}
		if st := t.simplex(total); st != StatusOptimal {
			return false
		}
		if -t.obj[total] > 1e-6 { // phase-1 optimum is -obj[rhs]
			return false
		}
		// Pivot remaining basic artificials out where possible, on the
		// first structural or slack column with a usable entry.
		for i := 0; i < mRows; i++ {
			if t.basis[i] < n+nSlack {
				continue
			}
			pc := -1
			for _, e := range t.rows[i] {
				if e.j < n+nSlack && math.Abs(e.v) > feasTol && (pc == -1 || e.j < pc) {
					pc = e.j
				}
			}
			if pc != -1 {
				t.pivot(i, pc)
				if t.rec {
					t.log.record(t, i, pc, true)
				}
			}
		}
	}
	return true
}

// shiftedRHS returns c's right-hand side less its terms at the lower bounds
// lo, the rhs phase 1 builds c's row with.
func (c *constraint) shiftedRHS(lo []float64) float64 {
	r := c.rhs
	for _, t := range c.terms {
		r -= t.Coef * lo[t.Var]
	}
	return r
}

// tableau is the simplex tableau: one row per constraint, model rows first,
// then the upper-bound rows, plus the objective row. Columns are
// [structural][slack/surplus][artificial], then the rhs column.
//
// A constraint row holds only its nonzero entries, in no particular order,
// with a bitset of the columns they occupy; the rhs column is kept apart,
// dense. The mapper's tableaux stay a few percent dense through a solve:
// an upper-bound row keeps its two initial entries (x_k and its slack) until
// x_k enters the basis, and most never change. The objective row, which
// Bland's rule scans in full, is dense.
type tableau struct {
	rows   [][]entry
	rhs    []float64 // the rhs column
	cols   []uint64  // the rows' column sets, words uint64s each (colsOf)
	words  int
	obj    []float64 // objective row; obj[total] is its rhs entry
	basis  []int     // basic column of each row
	n      int       // structural columns
	nSlack int       // slack/surplus columns, after the structural ones
	total  int       // column count, and the index of the objective's rhs
	prow   []float64 // the pivot row over all columns during a pivot, else zero

	// Backing storage kept for the next solve: the slab holding every
	// row's initial entries, and the spill slab rows move to when they
	// outgrow their share (carve).
	slab  []entry
	spill []entry

	// rec is set while phase 1 of a root that will be snapshot runs; its
	// pivots and ratio tests then go to log. pass lists the passenger rows
	// of a replay (Phase1.load).
	rec  bool
	log  pivotLog
	pass []int
}

// tableauPool recycles tableaux across solves. Branch and bound solves one
// LP per node and the mapper solves one ILP per target, so without reuse
// the tableau storage is most of the bytes a mapping allocates.
var tableauPool = sync.Pool{New: func() any { return new(tableau) }}

// release drops the rows, which may point into spill slabs the tableau no
// longer holds, and returns t to the pool.
func (t *tableau) release() {
	clear(t.rows)
	tableauPool.Put(t)
}

// resize returns s with length n, reusing its array when it is large
// enough. The contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// carve returns an empty row with room for n entries, cut from the spill
// slab. A full slab is replaced by one at least twice its size; rows
// already cut from it keep it alive until the solve ends.
func (t *tableau) carve(n int) []entry {
	at := len(t.spill)
	if at+n > cap(t.spill) {
		t.spill = make([]entry, 0, max(2*cap(t.spill), n, 256))
		at = 0
	}
	t.spill = t.spill[:at+n]
	return t.spill[at : at : at+n]
}

// entry is one nonzero of a constraint row.
type entry struct {
	j int
	v float64
}

// bitset is a set of column indices.
type bitset []uint64

func (b bitset) has(j int) bool { return b[j>>6]&(1<<(j&63)) != 0 }
func (b bitset) add(j int)      { b[j>>6] |= 1 << (j & 63) }
func (b bitset) remove(j int)   { b[j>>6] &^= 1 << (j & 63) }

// colsOf returns the set of columns row i has entries in.
func (t *tableau) colsOf(i int) bitset { return t.cols[i*t.words : (i+1)*t.words] }

// has reports whether row i has an entry in column j.
func (t *tableau) has(i, j int) bool { return t.cols[i*t.words+j>>6]&(1<<(j&63)) != 0 }

// at returns entry (i, j) of a constraint row.
func (t *tableau) at(i, j int) float64 {
	if t.has(i, j) {
		for _, e := range t.rows[i] {
			if e.j == j {
				return e.v
			}
		}
	}
	return 0
}

// subRow subtracts f times row i from the objective row.
func (t *tableau) subRow(f float64, i int) {
	if finite(f) {
		for _, e := range t.rows[i] {
			t.obj[e.j] -= f * e.v
		}
	} else {
		// f·0 is not an exact zero: update every column, as the dense
		// tableau does.
		for j := 0; j < t.total; j++ {
			t.obj[j] -= f * t.at(i, j)
		}
	}
	t.obj[t.total] -= f * t.rhs[i]
}

// pivot makes column pc basic in row pr.
func (t *tableau) pivot(pr, pc int) {
	pv := t.at(pr, pc)
	p := t.rows[pr][:0]
	for _, e := range t.rows[pr] {
		if e.v /= pv; e.v != 0 {
			p = append(p, e)
			t.prow[e.j] = e.v
		} else {
			t.colsOf(pr).remove(e.j)
		}
	}
	t.rows[pr] = p
	t.rhs[pr] /= pv
	for i := range t.rows {
		if i != pr && t.has(i, pc) {
			if f := t.at(i, pc); f != 0 {
				t.eliminate(i, f, p, t.rhs[pr])
			}
		}
	}
	if f := t.obj[pc]; f != 0 {
		t.subRow(f, pr)
	}
	for _, e := range p {
		t.prow[e.j] = 0
	}
	t.basis[pr] = pc
}

// eliminate subtracts f times the normalized pivot row, entries p and rhs
// prhs, from row i; t.prow holds p over all columns. Where the pivot row
// has no entry the dense update subtracts f·0, an exact zero, so only its
// columns are computed — unless f is infinite or NaN, when every column
// is. Entries that cancel to zero are dropped; the dense tableau would keep
// them as ±0.
func (t *tableau) eliminate(i int, f float64, p []entry, prhs float64) {
	r, cols := t.rows[i], t.colsOf(i)
	if finite(f) {
		for k := range r {
			if pv := t.prow[r[k].j]; pv != 0 {
				r[k].v -= f * pv
			}
		}
		fill := 0
		for _, e := range p {
			if !cols.has(e.j) {
				fill++
			}
		}
		if len(r)+fill > cap(r) {
			r = append(t.carve(2*(len(r)+fill)), r...)
		}
		for _, e := range p {
			if !cols.has(e.j) {
				r = append(r, entry{e.j, -(f * e.v)})
				cols.add(e.j)
			}
		}
	} else {
		for j := 0; j < t.total; j++ {
			if !cols.has(j) {
				r = append(r, entry{j, 0})
				cols.add(j)
			}
		}
		for k := range r {
			r[k].v -= f * t.prow[r[k].j]
		}
	}
	kept := r[:0]
	for _, e := range r {
		if e.v != 0 {
			kept = append(kept, e)
		} else {
			cols.remove(e.j)
		}
	}
	t.rows[i] = kept
	t.rhs[i] -= f * prhs
}

func finite(f float64) bool { return !math.IsInf(f, 0) && !math.IsNaN(f) }

// simplex pivots until optimality; only columns below limit may enter.
// While the tableau records, each ratio test's candidates and each pivot go
// to its log.
func (t *tableau) simplex(limit int) Status {
	for iter := 0; iter < 100000; iter++ {
		// Bland: entering = smallest index with negative reduced cost.
		pc := -1
		for j := 0; j < limit; j++ {
			if t.obj[j] < -feasTol {
				pc = j
				break
			}
		}
		if pc == -1 {
			return StatusOptimal
		}
		sc := newRatioScan()
		for i := range t.rows {
			if ratio, ok := t.ratio(i, pc); ok {
				if t.rec {
					t.log.cand = append(t.log.cand, candidate{int32(i), int32(t.basis[i]), ratio})
				}
				sc.offer(i, ratio, t.basis[i])
			}
		}
		if sc.row == -1 {
			return StatusUnbounded
		}
		t.pivot(sc.row, pc)
		if t.rec {
			t.log.record(t, sc.row, pc, false)
		}
	}
	return StatusUnbounded // cycling guard tripped; treat as failure
}

// ratio returns row i's ratio-test ratio for entering column pc, and false
// when row i is no candidate: its entry in pc is not above feasTol.
func (t *tableau) ratio(i, pc int) (float64, bool) {
	if t.has(i, pc) {
		if a := t.at(i, pc); a > feasTol {
			return t.rhs[i] / a, true
		}
	}
	return 0, false
}

// ratioScan is a ratio test in progress: the row chosen so far, its ratio
// and its basic column. Candidates are offered in row order.
type ratioScan struct {
	row, basis int
	best       float64
}

func newRatioScan() ratioScan { return ratioScan{row: -1, best: math.Inf(1)} }

// offer applies Bland's rule under tolerance: a ratio clearly below the
// best wins, and one within feasTol of it wins on a lower basic column.
func (s *ratioScan) offer(row int, ratio float64, basis int) {
	if ratio < s.best-feasTol || (ratio < s.best+feasTol && (s.row == -1 || basis < s.basis)) {
		s.row, s.best, s.basis = row, ratio, basis
	}
}

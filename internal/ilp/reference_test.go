package ilp

import "math"

// SolveDense is Solve on the dense-tableau simplex below: the oracle the
// differential tests and FuzzSolveMatchesDense hold solveLP to.
func SolveDense(m *Model) (*Solution, error) {
	return m.solve(2_000_000, solveLPDense)
}

// solveLPDense is the dense-tableau LP relaxation solver that solveLP
// replaced, kept as written apart from reading the constraint terms as a
// slice. It materializes every row, upper-bound rows included, and updates
// every column of every row on each pivot.
//
// The implementation is a dense two-phase primal simplex on the tableau with
// Bland's anti-cycling rule. Variables are shifted by their lower bounds;
// finite upper bounds become explicit rows.
func solveLPDense(m *Model, obj []float64, lo, hi []float64) ([]float64, float64, Status) {
	n := len(m.names)
	for i := 0; i < n; i++ {
		if hi[i] < lo[i]-feasTol {
			return nil, 0, StatusInfeasible
		}
	}

	type row struct {
		coef  []float64
		sense Sense
		rhs   float64
	}
	var rows []row
	addRow := func(coef []float64, sense Sense, rhs float64) {
		rows = append(rows, row{coef, sense, rhs})
	}
	// Model constraints, shifted by lower bounds.
	for _, c := range m.cons {
		coef := make([]float64, n)
		rhs := c.rhs
		for _, t := range c.terms {
			v, cv := t.Var, t.Coef
			coef[v] = cv
			rhs -= cv * lo[v]
		}
		addRow(coef, c.sense, rhs)
	}
	// Upper-bound rows for shifted variables.
	for i := 0; i < n; i++ {
		if math.IsInf(hi[i], 1) {
			continue
		}
		coef := make([]float64, n)
		coef[i] = 1
		addRow(coef, LE, hi[i]-lo[i])
	}

	mRows := len(rows)
	// Normalize to rhs ≥ 0.
	for i := range rows {
		if rows[i].rhs < 0 {
			for j := range rows[i].coef {
				rows[i].coef[j] = -rows[i].coef[j]
			}
			rows[i].rhs = -rows[i].rhs
			switch rows[i].sense {
			case LE:
				rows[i].sense = GE
			case GE:
				rows[i].sense = LE
			}
		}
	}
	// Column layout: [structural n][slack/surplus s][artificial a].
	nSlack := 0
	nArt := 0
	for _, r := range rows {
		if r.sense != EQ {
			nSlack++
		}
		if r.sense != LE {
			nArt++
		}
	}
	total := n + nSlack + nArt
	// tab has mRows+1 rows; the last row is the objective (phase-dependent).
	tab := make([][]float64, mRows+1)
	for i := range tab {
		tab[i] = make([]float64, total+1) // +1 for rhs column
	}
	basis := make([]int, mRows)
	isArt := make([]bool, total)
	slackIdx, artIdx := n, n+nSlack
	for i, r := range rows {
		copy(tab[i], r.coef)
		tab[i][total] = r.rhs
		switch r.sense {
		case LE:
			tab[i][slackIdx] = 1
			basis[i] = slackIdx
			slackIdx++
		case GE:
			tab[i][slackIdx] = -1
			slackIdx++
			tab[i][artIdx] = 1
			basis[i] = artIdx
			isArt[artIdx] = true
			artIdx++
		case EQ:
			tab[i][artIdx] = 1
			basis[i] = artIdx
			isArt[artIdx] = true
			artIdx++
		}
	}

	objRow := tab[mRows]
	pivot := func(pr, pc int) {
		pv := tab[pr][pc]
		for j := 0; j <= total; j++ {
			tab[pr][j] /= pv
		}
		for i := 0; i <= mRows; i++ {
			if i == pr {
				continue
			}
			f := tab[i][pc]
			if f == 0 {
				continue
			}
			for j := 0; j <= total; j++ {
				tab[i][j] -= f * tab[pr][j]
			}
		}
		if pr < mRows {
			basis[pr] = pc
		}
	}
	// runSimplex pivots until optimality. allowed filters entering columns.
	runSimplex := func(allowed func(int) bool) Status {
		for iter := 0; iter < 100000; iter++ {
			// Bland: entering = smallest index with negative reduced cost.
			pc := -1
			for j := 0; j < total; j++ {
				if allowed != nil && !allowed(j) {
					continue
				}
				if objRow[j] < -feasTol {
					pc = j
					break
				}
			}
			if pc == -1 {
				return StatusOptimal
			}
			// Ratio test, Bland tie-break on basis index.
			pr := -1
			bestRatio := math.Inf(1)
			for i := 0; i < mRows; i++ {
				if tab[i][pc] > feasTol {
					ratio := tab[i][total] / tab[i][pc]
					if ratio < bestRatio-feasTol ||
						(ratio < bestRatio+feasTol && (pr == -1 || basis[i] < basis[pr])) {
						bestRatio = ratio
						pr = i
					}
				}
			}
			if pr == -1 {
				return StatusUnbounded
			}
			pivot(pr, pc)
		}
		return StatusUnbounded // cycling guard tripped; treat as failure
	}

	// Phase 1: minimize the sum of artificials.
	if nArt > 0 {
		for j := 0; j <= total; j++ {
			objRow[j] = 0
		}
		for j := n + nSlack; j < total; j++ {
			objRow[j] = 1
		}
		// Make the objective row consistent with the basic artificials.
		for i := 0; i < mRows; i++ {
			if isArt[basis[i]] {
				for j := 0; j <= total; j++ {
					objRow[j] -= tab[i][j]
				}
			}
		}
		if st := runSimplex(nil); st != StatusOptimal {
			return nil, 0, StatusInfeasible
		}
		if -objRow[total] > 1e-6 { // phase-1 optimum is -objRow[rhs]
			return nil, 0, StatusInfeasible
		}
		// Pivot remaining basic artificials out where possible.
		for i := 0; i < mRows; i++ {
			if !isArt[basis[i]] {
				continue
			}
			for j := 0; j < n+nSlack; j++ {
				if math.Abs(tab[i][j]) > feasTol {
					pivot(i, j)
					break
				}
			}
		}
	}

	// Phase 2: real objective over structural columns; artificials barred.
	for j := 0; j <= total; j++ {
		objRow[j] = 0
	}
	for j := 0; j < n; j++ {
		objRow[j] = obj[j]
	}
	// Reduce objective row against the current basis.
	for i := 0; i < mRows; i++ {
		b := basis[i]
		f := objRow[b]
		if f == 0 {
			continue
		}
		for j := 0; j <= total; j++ {
			objRow[j] -= f * tab[i][j]
		}
	}
	st := runSimplex(func(j int) bool { return !isArt[j] })
	if st == StatusUnbounded {
		return nil, 0, StatusUnbounded
	}

	// Extract solution (shift lower bounds back in).
	vals := make([]float64, n)
	for i := 0; i < mRows; i++ {
		if basis[i] < n {
			vals[basis[i]] = tab[i][total]
		}
	}
	objv := 0.0
	for i := 0; i < n; i++ {
		vals[i] += lo[i]
		if vals[i] < lo[i] {
			vals[i] = lo[i]
		}
		objv += obj[i] * vals[i]
	}
	return vals, objv, StatusOptimal
}

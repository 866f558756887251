package ilp

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// assignModel draws a model shaped like the mapper's encodings: one binary
// per node and unit, each node on exactly one unit, units taken in
// non-decreasing order along the node chain, and a capacity row per unit.
func assignModel(seed int64, nodes, units int) *Model {
	rng := rand.New(rand.NewSource(seed))
	m := NewModel()
	x := func(i, j int) VarID { return VarID(i*units + j) }
	for i := 0; i < nodes*units; i++ {
		m.SetObjectiveTerm(m.Binary(""), float64(1+rng.Intn(40))/4)
	}
	var terms []Term
	for i := 0; i < nodes; i++ {
		terms = terms[:0]
		for j := 0; j < units; j++ {
			terms = append(terms, Term{x(i, j), 1})
		}
		m.AddConstraint("", terms, EQ, 1)
	}
	for i := 1; i < nodes; i++ {
		terms = terms[:0]
		for j := 0; j < units; j++ {
			terms = append(terms, Term{x(i, j), float64(j)}, Term{x(i-1, j), -float64(j)})
		}
		m.AddConstraint("", terms, GE, 0)
	}
	for j := 0; j < units; j++ {
		terms = terms[:0]
		for i := 0; i < nodes; i++ {
			terms = append(terms, Term{x(i, j), float64(1 + rng.Intn(4))})
		}
		m.AddConstraint("", terms, LE, float64(2+rng.Intn(2*nodes)))
	}
	return m
}

// reuseCase is one model of the workspace-reuse sequence; build returns a
// fresh copy on every call.
type reuseCase struct {
	name  string
	build func() *Model
}

// reuseCases returns models of many sizes, with an infeasible root and the
// solver's non-finite path among them.
func reuseCases(t *testing.T) []reuseCase {
	var cs []reuseCase
	rng := rand.New(rand.NewSource(24))
	for i := 0; i < 40; i++ {
		data := make([]byte, 8+rng.Intn(88))
		rng.Read(data)
		cs = append(cs, reuseCase{fmt.Sprintf("binary %d", i), func() *Model { return modelFromBytes(data) }})
	}
	for i, size := range [][2]int{{2, 3}, {4, 4}, {6, 5}, {9, 6}} {
		nodes, units := size[0], size[1]
		cs = append(cs, reuseCase{fmt.Sprintf("assign %dx%d", nodes, units),
			func() *Model { return assignModel(int64(i), nodes, units) }})
	}
	cs = append(cs, reuseCase{"phase-1 infeasible", func() *Model {
		m := NewModel()
		x, y := m.Binary("x"), m.Binary("y")
		m.SetObjectiveTerm(x, 1)
		m.AddConstraint("c", []Term{{x, 1}, {y, 1}}, GE, 3)
		return m
	}})
	for seed := int64(1); ; seed++ {
		if seed > 5000 {
			t.Fatal("no overflow model found; the sequence would miss the non-finite path")
		}
		build := func() *Model { return overflowModel(rand.New(rand.NewSource(seed))) }
		if overflows(build()) {
			cs = append(cs, reuseCase{fmt.Sprintf("overflow seed %d", seed), build})
			break
		}
	}
	return cs
}

// TestSolveReusesWorkspace holds solves on a recycled workspace to the
// dense oracle: a shuffled sequence of models of different sizes, each
// solved twice, must match the dense solve of a fresh copy in status,
// node count and every value bit. The concurrent subtest runs the same
// sequence from several goroutines (go test -race checks the sharing).
func TestSolveReusesWorkspace(t *testing.T) {
	cases := reuseCases(t)
	want := make([]*Solution, len(cases))
	werr := make([]error, len(cases))
	for i, c := range cases {
		want[i], werr[i] = c.build().solve(2000, solveLPDense)
	}
	run := func(t *testing.T, seed int64) {
		order := rand.New(rand.NewSource(seed)).Perm(len(cases))
		for pass := 0; pass < 2; pass++ {
			for _, i := range order {
				got, gerr := cases[i].build().solve(2000, solveLP)
				if d := SameSolve(got, gerr, want[i], werr[i]); d != "" {
					t.Errorf("%s (pass %d, order seed %d): pooled vs dense: %s", cases[i].name, pass, seed, d)
				}
			}
		}
	}
	t.Run("sequential", func(t *testing.T) { run(t, 1) })
	t.Run("concurrent", func(t *testing.T) {
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				run(t, seed)
			}(int64(2 + g))
		}
		wg.Wait()
	})
}

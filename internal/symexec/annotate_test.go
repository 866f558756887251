package symexec

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"clara/internal/cir"
	"clara/internal/mapper"
	"clara/internal/nf"
	"clara/internal/workload"
)

// AnnotateGraph is the reference annotation: it sets g's edge
// probabilities in place from the classes' block traces weighted by the
// workload, summing over a map of node transitions. Annotator must match
// it bit for bit on a copy of the graph.
func AnnotateGraph(g *cir.Graph, classes []Class, w Weights) {
	probs := Normalize(classes, w)
	// Map block → node.
	blockNode := map[int]int{}
	for _, n := range g.Nodes {
		for _, b := range n.Blocks {
			blockNode[b] = n.ID
		}
	}
	// Accumulate weighted node→node transition counts.
	trans := map[[2]int]float64{}
	visits := map[int]float64{}
	for ci := range classes {
		p := probs[ci]
		if p == 0 {
			continue
		}
		trace := classes[ci].BlockTrace
		prev := -1
		for _, b := range trace {
			n, ok := blockNode[b]
			if !ok {
				continue
			}
			if prev != -1 && n != prev {
				trans[[2]int{prev, n}] += p
				visits[prev] += p
			}
			prev = n
		}
	}
	for i := range g.Edges {
		e := &g.Edges[i]
		out := visits[e.From]
		if out <= 0 {
			continue
		}
		e.Prob = trans[[2]int{e.From, e.To}] / out
	}
}

// annotationWorkloads are the mapper's bit-exactness corpus workloads
// (corpusWorkloads in internal/mapper), wide enough to move every branch.
var annotationWorkloads = []string{
	"",
	"flows=100,size=64,rate=100000",
	"flows=10000,size=1400,rate=20000",
	"flows=1000000,size=300,rate=1000000,tcp=0.1",
	"flows=50,size=1000,rate=5000000,zipf=1.2",
	"flows=64000,size=128,rate=60000,packets=200000",
	"flows=2000,size=600,rate=400000,tcp=1",
	"flows=10,size=1500,rate=10000000",
}

// seededSpecs draws n workload specs as perfbench's advise stream does:
// flow count log-uniform in 100..100k, offered rate, TCP share and size.
func seededSpecs(seed int64, n int) []string {
	r := rand.New(rand.NewSource(seed))
	out := make([]string, n)
	for i := range out {
		flows := int(math.Round(math.Pow(10, 2+3*r.Float64())))
		rate := 10000 + 1000*r.Intn(191)
		tcp := 0.05 + 0.9*r.Float64()
		size := 64 + r.Intn(1337)
		out[i] = fmt.Sprintf("flows=%d,rate=%d,tcp=%.3f,size=%d", flows, rate, tcp, size)
	}
	return out
}

// TestAnnotatedGraphMatchesClone: for every corpus NF under every corpus
// workload and 50 seeded perfbench-style ones, the annotator's graph has
// the edges, and the exact probability bits, of the reference annotation
// of a copy; it shares the base graph's nodes, and the base graph stays
// equal to a freshly built one.
func TestAnnotatedGraphMatchesClone(t *testing.T) {
	specs := append(append([]string(nil), annotationWorkloads...), seededSpecs(1, 50)...)
	all := nf.All()
	for _, name := range nf.Names() {
		prog := all[name].MustCompile()
		g, err := cir.BuildGraph(prog)
		if err != nil {
			t.Fatal(err)
		}
		classes, err := EnumerateContext(context.Background(), prog)
		if err != nil {
			t.Fatal(err)
		}
		a := NewAnnotator(g, classes)
		moved := 0
		for _, spec := range specs {
			p, err := workload.ParseProfile(spec)
			if err != nil {
				t.Fatal(err)
			}
			w := WeightsFor(mapper.FromProfile(p))
			got := a.Graph(w)
			ref := *g
			ref.Edges = append([]cir.Edge(nil), g.Edges...)
			AnnotateGraph(&ref, classes, w)
			if len(got.Nodes) != len(g.Nodes) || (len(g.Nodes) > 0 && &got.Nodes[0] != &g.Nodes[0]) {
				t.Fatalf("%s/%q: the annotated graph does not share the base graph's nodes", name, spec)
			}
			if got.Prog != g.Prog || got.Entry != g.Entry || len(got.Edges) != len(ref.Edges) {
				t.Fatalf("%s/%q: annotated graph shape differs from the reference", name, spec)
			}
			for i, e := range got.Edges {
				r := ref.Edges[i]
				if e.From != r.From || e.To != r.To || math.Float64bits(e.Prob) != math.Float64bits(r.Prob) {
					t.Errorf("%s/%q: edge %d is n%d->n%d p=%v, reference n%d->n%d p=%v",
						name, spec, i, e.From, e.To, e.Prob, r.From, r.To, r.Prob)
				}
				if e.Prob != g.Edges[i].Prob {
					moved++
				}
			}
			if again := AnnotatedGraph(g, classes, w); !reflect.DeepEqual(again, got) {
				t.Errorf("%s/%q: AnnotatedGraph differs from the annotator's graph", name, spec)
			}
		}
		if fresh, err := cir.BuildGraph(prog); err != nil || !reflect.DeepEqual(fresh, g) {
			t.Errorf("%s: annotating changed the base graph (%v)", name, err)
		}
		if len(g.Edges) > 0 && moved == 0 {
			t.Logf("%s: no workload moved an edge off its default", name)
		}
	}
}

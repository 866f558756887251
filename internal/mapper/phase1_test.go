package mapper_test

import (
	"context"
	"crypto/sha256"
	"sync"
	"testing"

	"clara/internal/lnic"
	"clara/internal/mapper"
	"clara/internal/nf"
	"clara/internal/obs"
	"clara/internal/predict"
	"clara/internal/workload"
)

// mappingKey folds every field of m (or the error text) into a comparable
// key: NodeUnit, StateMem, UseFlowCache, the placement flags, the bits of
// CostCycles and SolverNodes.
func mappingKey(m *mapper.Mapping, err error) string {
	h := sha256.New()
	hashMapping(h, m, err)
	return string(h.Sum(nil))
}

// pipelineCase is one map through a Pipeline: a target, a hint variant and
// one of corpusWorkloads.
type pipelineCase struct {
	nic   *lnic.LNIC
	hint  int
	hints mapper.Hints
	wl    mapper.Workload
	spec  string
}

// pipelineCases lists every target × hint variant × corpus workload of the
// NF behind p, with each case's cold mapping: mapper.Map over the graph p
// annotates for the workload.
func pipelineCases(t testing.TB, p *predict.Pipeline) ([]pipelineCase, []string) {
	t.Helper()
	var cases []pipelineCase
	var want []string
	for _, pname := range lnic.ProfileNames() {
		nic := lnic.Profiles()[pname]()
		for hi, h := range hintVariants(p.Graph, nic) {
			for _, spec := range corpusWorkloads {
				prof, err := workload.ParseProfile(spec)
				if err != nil {
					t.Fatal(err)
				}
				wl := mapper.FromProfile(prof)
				g, err := p.Annotated(context.Background(), wl)
				if err != nil {
					t.Fatal(err)
				}
				cases = append(cases, pipelineCase{nic: nic, hint: hi, hints: h, wl: wl, spec: spec})
				want = append(want, mappingKey(mapper.Map(g, nic, wl, h)))
			}
		}
	}
	return cases, want
}

// TestPipelineMapMatchesColdMap maps every corpus NF × target × hint
// variant under the 8 corpusWorkloads through one Pipeline per NF, forward
// and then backward, so most solves start from an earlier workload's phase
// 1, some of them replaying its log on changed Θ or flow-cache rows, and
// every hint change replaces a slot. Each Mapping must be bit for bit the
// cold mapper.Map of the same inputs.
func TestPipelineMapMatchesColdMap(t *testing.T) {
	all := nf.All()
	var hits, misses, replays int64
	for _, name := range nf.Names() {
		p, err := predict.NewPipeline(all[name].MustCompile())
		if err != nil {
			t.Fatal(err)
		}
		cases, want := pipelineCases(t, p)
		m := obs.New()
		ctx := obs.With(context.Background(), m)
		check := func(pass string, i int) {
			c := cases[i]
			got, err := p.Map(ctx, c.nic, c.wl, c.hints)
			if mappingKey(got, err) != want[i] {
				t.Errorf("%s/%s/h%d %q (%s pass): pipeline mapping differs from the cold one",
					name, c.nic.Name, c.hint, c.spec, pass)
			}
		}
		for i := range cases {
			check("forward", i)
		}
		for i := len(cases) - 1; i >= 0; i-- {
			check("backward", i)
		}
		hits += m.Counter("clara_map_phase1_hits_total").Value()
		misses += m.Counter("clara_map_phase1_misses_total").Value()
		replays += m.Counter("clara_map_phase1_replays_total").Value()
	}
	t.Logf("phase-1 hits %d (replays %d), misses %d", hits, replays, misses)
	if hits == 0 || misses == 0 || replays == 0 {
		t.Errorf("hits %d, replays %d, misses %d: the corpus no longer covers every path", hits, replays, misses)
	}
}

// TestPipelineMapConcurrent maps one Pipeline from several goroutines, each
// under workloads of its own on every target, so solves record, replace and
// reuse one target's slot at once; every Mapping must equal the cold one.
// go test -race checks the sharing.
func TestPipelineMapConcurrent(t *testing.T) {
	p, err := predict.NewPipeline(nf.All()["firewall"].MustCompile())
	if err != nil {
		t.Fatal(err)
	}
	cases, want := pipelineCases(t, p)
	m := obs.New()
	ctx := obs.With(context.Background(), m)
	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for i, c := range cases {
					if c.hint != 0 || i%workers != w {
						continue
					}
					got, err := p.Map(ctx, c.nic, c.wl, c.hints)
					if mappingKey(got, err) != want[i] {
						t.Errorf("worker %d round %d: %s %q: pipeline mapping differs from the cold one",
							w, round, c.nic.Name, c.spec)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if m.Counter("clara_map_phase1_hits_total").Value() == 0 {
		t.Error("no concurrent map reused a snapshot")
	}
	// The slots are left by whichever map ran last; one more sequential
	// pass must still match.
	for i, c := range cases {
		if got, err := p.Map(context.Background(), c.nic, c.wl, c.hints); mappingKey(got, err) != want[i] {
			t.Fatalf("after the concurrent maps: %s %q h%d differs from the cold one", c.nic.Name, c.spec, c.hint)
		}
	}
}

package ilp_test

import (
	"fmt"
	"testing"

	"clara/internal/cir"
	"clara/internal/ilp"
	"clara/internal/lnic"
	"clara/internal/mapper"
	"clara/internal/nf"
	"clara/internal/workload"
)

// TestMapperModelsMatchDense holds Solve to the dense-tableau reference on
// every model the mapper builds for the corpus NFs on every target, under
// the workloads and hints of the mapper's bit-exactness corpus.
func TestMapperModelsMatchDense(t *testing.T) {
	workloads := []string{
		"",
		"flows=100,size=64,rate=100000",
		"flows=10000,size=1400,rate=20000",
		"flows=1000000,size=300,rate=1000000,tcp=0.1",
		"flows=50,size=1000,rate=5000000,zipf=1.2",
		"flows=64000,size=128,rate=60000,packets=200000",
		"flows=2000,size=600,rate=400000,tcp=1",
		"flows=10,size=1500,rate=10000000",
	}
	all := nf.All()
	models := 0
	for _, name := range nf.Names() {
		g, err := cir.BuildGraph(all[name].MustCompile())
		if err != nil {
			t.Fatal(err)
		}
		for _, pname := range lnic.ProfileNames() {
			nic := lnic.Profiles()[pname]()
			slow, fast := map[string]string{}, map[string]string{}
			for _, s := range g.Prog.State {
				slow[s.Name] = nic.Mems[len(nic.Mems)-1].Name
				fast[s.Name] = nic.Mems[0].Name
			}
			hints := []mapper.Hints{{}, {DisableFlowCache: true}, {SoftwareParse: true},
				{PinState: slow}, {PinState: fast}}
			for _, spec := range workloads {
				p, err := workload.ParseProfile(spec)
				if err != nil {
					t.Fatal(err)
				}
				for hi, h := range hints {
					m, err := mapper.Encode(g, nic, mapper.FromProfile(p), h)
					if err != nil {
						continue // infeasible before any solve
					}
					label := fmt.Sprintf("%s/%s/%q/h%d", name, pname, spec, hi)
					got, gerr := m.Solve()
					want, werr := ilp.SolveDense(m)
					if d := ilp.SameSolve(got, gerr, want, werr); d != "" {
						t.Fatalf("%s: sparse vs dense: %s", label, d)
					}
					models++
				}
			}
		}
	}
	t.Logf("%d mapper models agree", models)
}

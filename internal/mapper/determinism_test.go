package mapper_test

import (
	"reflect"
	"testing"

	"clara/internal/cir"
	"clara/internal/lnic"
	"clara/internal/mapper"
	"clara/internal/nf"
	"clara/internal/workload"
)

// TestMappingsDeterministic repeats Map and Greedy for every corpus NF on
// every target: each call must return the same Mapping. Cost ties (equal
// units on a symmetric NIC) must not be broken by map iteration order.
func TestMappingsDeterministic(t *testing.T) {
	const calls = 50
	all := nf.All()
	wl := mapper.FromProfile(workload.DefaultProfile())
	for _, name := range nf.Names() {
		g, err := cir.BuildGraph(all[name].MustCompile())
		if err != nil {
			t.Fatal(err)
		}
		for _, pname := range lnic.ProfileNames() {
			nic := lnic.Profiles()[pname]()
			for _, solver := range []struct {
				name string
				fn   func(*cir.Graph, *lnic.LNIC, mapper.Workload, mapper.Hints) (*mapper.Mapping, error)
			}{{"Map", mapper.Map}, {"Greedy", mapper.Greedy}} {
				first, ferr := solver.fn(g, nic, wl, mapper.Hints{})
				for c := 1; c < calls; c++ {
					m, err := solver.fn(g, nic, wl, mapper.Hints{})
					if (err == nil) != (ferr == nil) || (err != nil && err.Error() != ferr.Error()) {
						t.Fatalf("%s %s/%s call %d: error %v, first call %v", solver.name, name, pname, c, err, ferr)
					}
					if !reflect.DeepEqual(m, first) {
						t.Fatalf("%s %s/%s call %d: %+v, first call %+v", solver.name, name, pname, c, m, first)
					}
				}
			}
		}
	}
}

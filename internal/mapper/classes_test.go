package mapper_test

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"clara/internal/cir"
	"clara/internal/lnic"
	"clara/internal/mapper"
	"clara/internal/nf"
)

// fullColumns returns a copy of nic whose general cores differ only in
// NJPerCycle, a field the mapper never reads: no two units are
// interchangeable (lnic.Representatives), so the mapper encodes one column
// per core, as it would without the classes.
func fullColumns(nic *lnic.LNIC) *lnic.LNIC {
	c := *nic
	c.Units = append([]lnic.ComputeUnit(nil), nic.Units...)
	for j := range c.Units {
		if c.Units[j].Kind == lnic.UnitNPU {
			c.Units[j].NJPerCycle += float64(j) / 1024
		}
	}
	return &c
}

// randomWorkload draws mapper expectations over the ranges the corpus
// workloads span: sizes to a jumbo frame, flows and rates over six decades,
// and an unset rate, which drops the Θ rows, one time in eight.
func randomWorkload(r *rand.Rand) mapper.Workload {
	payload := float64(r.Intn(1500))
	wl := mapper.Workload{
		AvgPayload:  payload,
		AvgWire:     payload + 54,
		Flows:       int(math.Pow(10, 6*r.Float64())),
		FlowReuse:   r.Float64(),
		RatePPS:     math.Pow(10, 2+6*r.Float64()),
		TCPFraction: r.Float64(),
	}
	wl.SYNFraction = wl.TCPFraction * r.Float64()
	if r.Intn(8) == 0 {
		wl.RatePPS = 0
	}
	return wl
}

// sameDecisions reports how two mapping results differ in anything but
// SolverNodes, or "" when they agree; CostCycles is compared bit for bit.
func sameDecisions(got *mapper.Mapping, gerr error, want *mapper.Mapping, werr error) string {
	if (gerr == nil) != (werr == nil) {
		return "errors differ: " + errText(gerr) + " vs " + errText(werr)
	}
	if gerr != nil {
		if gerr.Error() != werr.Error() {
			return "errors differ: " + gerr.Error() + " vs " + werr.Error()
		}
		return ""
	}
	switch {
	case !reflect.DeepEqual(got.NodeUnit, want.NodeUnit):
		return "NodeUnit differs"
	case !reflect.DeepEqual(got.StateMem, want.StateMem):
		return "StateMem differs"
	case !reflect.DeepEqual(got.UseFlowCache, want.UseFlowCache):
		return "UseFlowCache differs"
	case got.ChecksumOnAccel != want.ChecksumOnAccel || got.CryptoOnAccel != want.CryptoOnAccel ||
		got.ParseOnEngine != want.ParseOnEngine:
		return "accelerator or parse flags differ"
	case math.Float64bits(got.CostCycles) != math.Float64bits(want.CostCycles):
		return "CostCycles differs"
	}
	return ""
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// TestMapOverClassesMatchesFullModel: mapping over classes of
// interchangeable cores decides exactly what the model with one column per
// core decides. On netronome and armsoc, Map and Greedy give every corpus
// NF, under every hint variant of the bit-exactness corpus and 40 seeded
// random workloads, the same placements and the same CostCycles bits as on
// a copy whose cores all stay apart.
func TestMapOverClassesMatchesFullModel(t *testing.T) {
	const workloads = 40
	all := nf.All()
	cases, branched := 0, 0
	for _, pname := range []string{"armsoc", "netronome"} {
		nic := lnic.Profiles()[pname]()
		full := fullColumns(nic)
		rep := full.Representatives()
		for j := range rep {
			if rep[j] != j {
				t.Fatalf("%s copy: unit %s still represented by %s", pname, full.Units[j].Name, full.Units[rep[j]].Name)
			}
		}
		r := rand.New(rand.NewSource(39))
		for _, name := range nf.Names() {
			g, err := cir.BuildGraph(all[name].MustCompile())
			if err != nil {
				t.Fatal(err)
			}
			for w := 0; w < workloads; w++ {
				wl := randomWorkload(r)
				for hi, h := range hintVariants(g, nic) {
					for _, solver := range []struct {
						name string
						fn   func(*cir.Graph, *lnic.LNIC, mapper.Workload, mapper.Hints) (*mapper.Mapping, error)
					}{{"Map", mapper.Map}, {"Greedy", mapper.Greedy}} {
						got, gerr := solver.fn(g, nic, wl, h)
						want, werr := solver.fn(g, full, wl, h)
						if d := sameDecisions(got, gerr, want, werr); d != "" {
							t.Fatalf("%s %s/%s w%d h%d (%+v): %s", solver.name, name, pname, w, hi, wl, d)
						}
						cases++
						if werr == nil && want.SolverNodes > 1 {
							branched++
						}
					}
				}
			}
		}
	}
	if branched == 0 {
		t.Error("no full-model case needed branch and bound")
	}
	t.Logf("%d cases, %d branched in the full model", cases, branched)
}

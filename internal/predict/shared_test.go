package predict

import (
	"context"
	"maps"
	"reflect"
	"testing"

	"clara/internal/lnic"
	"clara/internal/mapper"
	"clara/internal/nf"
	"clara/internal/workload"
)

// cheaperCore returns a fresh netronome profile whose npu-th core runs
// every instruction class at half its price, so it is no longer
// interchangeable with its twins. The ClassCycles map is replaced, not
// written: a Clone shares its original's maps.
func cheaperCore(npu int) *lnic.LNIC {
	nic := lnic.Netronome()
	u := &nic.Units[nic.UnitsOfKind(lnic.UnitNPU)[npu]]
	u.ClassCycles = maps.Clone(u.ClassCycles)
	for c := range u.ClassCycles {
		u.ClassCycles[c] /= 2
	}
	return nic
}

// TestOnlySharedTargetsReuseState: a Pipeline keeps node domains, and the
// predictor price tables, for the shared built-in targets only, recognised
// by pointer. A
// fresh profile bears the built-in's name, so state kept by name would map
// and predict it as the built-in: here a netronome with one NPU made
// cheaper than its twins is mapped, twice, exactly as mapper.Map maps it,
// and one with a cheaper pricing core is predicted exactly as
// PredictWithClasses, which keeps nothing, predicts it. A Slice or a Clone
// of the built-in gets no kept state either, while the built-in's is built
// once and reused.
func TestOnlySharedTargetsReuseState(t *testing.T) {
	ctx := context.Background()
	wl := mapper.FromProfile(workload.Profile{Packets: 20000, Flows: 2000, PayloadBytes: 600, RatePPS: 400000, TCPFraction: 1})
	var shared *lnic.LNIC
	for i, name := range lnic.ProfileNames() {
		if name == "netronome" {
			shared = lnic.Shared()[i]
		}
	}
	all := nf.All()
	for _, name := range []string{"firewall", "nat", "vnfchain"} {
		p, err := NewPipeline(all[name].MustCompile())
		if err != nil {
			t.Fatal(err)
		}
		// The first map admits the target; the second keeps the domains.
		for k := 0; k < 2; k++ {
			if _, err := p.Predict(ctx, shared, wl, mapper.Hints{}, Options{}); err != nil {
				t.Fatal(err)
			}
		}
		slot := &p.shared[lnic.SharedIndex(shared)]
		dom, tables := slot.domains[mapper.Hints{}.Domain()], sharedTargetTables(shared)
		if dom == nil || tables == nil {
			t.Fatalf("%s: the built-in netronome's domains (%v) or tables (%v) are not kept", name, dom != nil, tables != nil)
		}
		if p.domains(shared, mapper.Hints{}.Domain()) != dom || sharedTargetTables(shared) != tables {
			t.Fatalf("%s: the built-in netronome's kept state is built again", name)
		}
		g, err := p.Annotated(ctx, wl)
		if err != nil {
			t.Fatal(err)
		}
		base, err := mapper.Map(g, shared, wl, mapper.Hints{})
		if err != nil {
			t.Fatal(err)
		}

		moved := cheaperCore(3)
		ref, err := mapper.Map(g, moved, wl, mapper.Hints{})
		if err != nil {
			t.Fatal(err)
		}
		if reflect.DeepEqual(ref.NodeUnit, base.NodeUnit) {
			t.Fatalf("%s: a cheaper npu3 does not move the mapping, so the test shows nothing", name)
		}
		for k := 0; k < 2; k++ {
			m, err := p.Map(ctx, moved, wl, mapper.Hints{})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(m, ref) {
				t.Errorf("%s: map %d on a netronome with a cheaper npu3 = %v, mapper.Map = %v", name, k+1, m.NodeUnit, ref.NodeUnit)
			}
		}

		priced := cheaperCore(0)
		classes, err := p.Classes(ctx)
		if err != nil {
			t.Fatal(err)
		}
		m, err := p.Map(ctx, priced, wl, mapper.Hints{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := PredictWithClasses(p.Program, classes, m, priced, wl, Options{})
		if err != nil {
			t.Fatal(err)
		}
		onShared, err := PredictWithClasses(p.Program, classes, m, shared, wl, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if reflect.DeepEqual(onShared.PerClass, want.PerClass) {
			t.Fatalf("%s: a cheaper npu0 does not move the prediction, so the test shows nothing", name)
		}
		if got, err := p.PredictMapped(ctx, priced, m, wl, Options{}); err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("%s: the prediction on a netronome with a cheaper npu0 differs from PredictWithClasses (%v)", name, err)
		}

		clone := shared.Clone()
		npu3 := clone.UnitsOfKind(lnic.UnitNPU)[3]
		clone.Units[npu3].ClassCycles = moved.Units[npu3].ClassCycles
		for _, other := range []*lnic.LNIC{moved, priced, clone, shared.Slice(0.5)} {
			if p.domains(other, mapper.Hints{}.Domain()) != nil || sharedTargetTables(other) != nil {
				t.Errorf("%s: %s, not a shared instance, gets kept state", name, other.Name)
			}
		}
		for k := 0; k < 2; k++ {
			if m, err := p.Map(ctx, clone, wl, mapper.Hints{}); err != nil || !reflect.DeepEqual(m, ref) {
				t.Errorf("%s: map %d on a Clone of the built-in with a cheaper npu3 differs from mapper.Map (%v)", name, k+1, err)
			}
		}
	}
}

package clara

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"clara/internal/lnic"
	"clara/internal/nf"
	"clara/internal/predict"
)

func colocNFs(t *testing.T, names ...string) []*NF {
	t.Helper()
	out := make([]*NF, len(names))
	for i, name := range names {
		spec, ok := nf.All()[name]
		if !ok {
			t.Fatalf("unknown corpus NF %q", name)
		}
		nfo, err := CompileNF(spec.Source)
		if err != nil {
			t.Fatal(err)
		}
		for st, n := range spec.PreloadEntries {
			nfo.Preload[st] = n
		}
		out[i] = nfo
	}
	return out
}

func colocWorkloads(t *testing.T, n int) []Workload {
	t.Helper()
	wl, err := ParseWorkload("packets=4000,rate=2000000,flows=400,tcp=1.0,size=200")
	if err != nil {
		t.Fatal(err)
	}
	out := make([]Workload, n)
	for i := range out {
		out[i] = wl
	}
	return out
}

// TestPredictColocatedSingleTenantIdentity pins the degenerate co-location
// contract: one active tenant must see the full NIC and the plain pipeline,
// so the prediction equals the solo Predict byte for byte. A zero-weight
// neighbour must not change that, and its own slot must be nil (the no-op
// contract for deactivated tenants).
func TestPredictColocatedSingleTenantIdentity(t *testing.T) {
	nfs := colocNFs(t, "firewall", "nat")
	wls := colocWorkloads(t, 2)
	target, err := NewTarget("netronome")
	if err != nil {
		t.Fatal(err)
	}
	want, err := nfs[0].Predict(target, wls[0], Hints{})
	if err != nil {
		t.Fatal(err)
	}

	for _, weights := range [][]float64{{1, 0}, {3.5, -2}} {
		got, err := PredictColocatedContext(context.Background(), nfs, weights, target, wls)
		if err != nil {
			t.Fatalf("weights %v: %v", weights, err)
		}
		if !reflect.DeepEqual(got[0], want) {
			t.Fatalf("weights %v: single-active-tenant prediction differs from solo Predict:\n got %+v\nwant %+v",
				weights, got[0], want)
		}
		if got[1] != nil {
			t.Fatalf("weights %v: deactivated tenant got a prediction: %+v", weights, got[1])
		}
	}

	if _, err := PredictColocatedContext(context.Background(), nfs, []float64{0, 0}, target, wls); err == nil {
		t.Fatal("all-zero weights should be an error")
	}
	if _, err := PredictColocatedContext(context.Background(), nfs, []float64{1}, target, wls); err == nil {
		t.Fatal("mismatched slice lengths should be an error")
	}
}

// TestPredictColocatedContention checks the substantive case: two active
// tenants each predict strictly worse than their solo profile on the full
// NIC (partitioned cores, inflated shared service times), and the contended
// prediction stays a complete profile.
func TestPredictColocatedContention(t *testing.T) {
	nfs := colocNFs(t, "firewall", "nat")
	wls := colocWorkloads(t, 2)
	target, err := NewTarget("netronome")
	if err != nil {
		t.Fatal(err)
	}
	got, err := PredictColocatedContext(context.Background(), nfs, []float64{1, 1}, target, wls)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range got {
		if p == nil {
			t.Fatalf("tenant %d: nil prediction", i)
		}
		solo, err := nfs[i].Predict(target, wls[i], Hints{})
		if err != nil {
			t.Fatal(err)
		}
		if p.MeanCycles <= solo.MeanCycles {
			t.Errorf("tenant %d: co-located latency %.0f not above solo %.0f", i, p.MeanCycles, solo.MeanCycles)
		}
		if p.ThroughputPPS >= solo.ThroughputPPS {
			t.Errorf("tenant %d: co-located throughput %.0f not below solo %.0f", i, p.ThroughputPPS, solo.ThroughputPPS)
		}
		if p.MeanCycles <= 0 || p.ThroughputPPS <= 0 || len(p.PerClass) == 0 {
			t.Errorf("tenant %d: incomplete profile: %+v", i, p)
		}
	}
}

// TestPredictColocatedDeterminism runs the whole contention-aware pipeline —
// including the memoized model fit, forced fresh by distinct first calls —
// under different GOMAXPROCS settings. The fit drives the co-located
// simulator at default worker counts, so this exercises the worker-count
// invariance contract end to end: every run must produce DeepEqual
// predictions.
func TestPredictColocatedDeterminism(t *testing.T) {
	nfs := colocNFs(t, "firewall", "dpi")
	wls := colocWorkloads(t, 2)
	target, err := NewTarget("netronome")
	if err != nil {
		t.Fatal(err)
	}
	weights := []float64{2, 1}

	baseline, err := PredictColocatedContext(context.Background(), nfs, weights, target, wls)
	if err != nil {
		t.Fatal(err)
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		// A freshly fitted model must match the memoized one: refit and
		// compare, then predict again through the public entry point.
		model, err := FitContention(target)
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		contModelMu.Lock()
		memo := contModels[target.Name]
		contModelMu.Unlock()
		if !reflect.DeepEqual(model, memo) {
			t.Fatalf("GOMAXPROCS=%d: refit contention model differs from memoized fit", procs)
		}
		got, err := PredictColocatedContext(context.Background(), nfs, weights, target, wls)
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", procs, err)
		}
		if !reflect.DeepEqual(got, baseline) {
			t.Fatalf("GOMAXPROCS=%d: co-located predictions changed", procs)
		}
	}
}

// TestPredictColocatedRefitsModifiedTarget pins the contention-model memo
// to unmodified built-in profiles: a NewTarget copy with slower hubs and
// units keeps the profile's name, but must be predicted with a model fitted
// for itself, not the one memoized for the pristine profile.
func TestPredictColocatedRefitsModifiedTarget(t *testing.T) {
	nfs := colocNFs(t, "firewall", "nat")
	wls := colocWorkloads(t, 2)
	weights := []float64{1, 1}
	pristine, err := NewTarget("netronome")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := PredictColocatedContext(context.Background(), nfs, weights, pristine, wls); err != nil {
		t.Fatal(err)
	}
	slow, err := NewTarget("netronome")
	if err != nil {
		t.Fatal(err)
	}
	for i := range slow.Hubs {
		slow.Hubs[i].ServiceCycles *= 4
	}
	for i := range slow.Units {
		slow.Units[i].FixedCycles *= 4
	}
	got, err := PredictColocatedContext(context.Background(), nfs, weights, slow, wls)
	if err != nil {
		t.Fatal(err)
	}

	model, err := FitContention(slow)
	if err != nil {
		t.Fatal(err)
	}
	tenants := make([]predict.ColocTenant, len(nfs))
	for i, n := range nfs {
		tenants[i] = predict.ColocTenant{NF: n.pipe, Weight: weights[i], Workload: wls[i]}
	}
	want, err := predict.PredictColocated(context.Background(), tenants, slow, model, PredictOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i].MeanCycles != want[i].MeanCycles {
			t.Errorf("tenant %d on the modified target: %.0f cycles, want %.0f from its own fitted model",
				i, got[i].MeanCycles, want[i].MeanCycles)
		}
	}
	contModelMu.Lock()
	memo := contModels[pristine.Name]
	contModelMu.Unlock()
	if fresh, err := FitContention(lnic.Netronome()); err != nil || !reflect.DeepEqual(memo, fresh) {
		t.Errorf("memoized model is not the pristine profile's fit (fit error %v)", err)
	}
}

// cancelAfterFirstCheck is a context whose Err reports nothing on its first
// call and context.Canceled on every later one: a caller that checks it once
// up front and never again runs to completion.
type cancelAfterFirstCheck struct {
	context.Context
	checks atomic.Int32
}

func (c *cancelAfterFirstCheck) Err() error {
	if c.checks.Add(1) > 1 {
		return context.Canceled
	}
	return nil
}

// TestPredictColocatedHonorsContextPerStage checks that co-location polls the
// caller's context at each tenant stage, not only once before it starts.
// Enumerations and the contention model are warmed first, so no memoized
// step consumes the first check.
func TestPredictColocatedHonorsContextPerStage(t *testing.T) {
	nfs := colocNFs(t, "firewall", "nat")
	wls := colocWorkloads(t, 2)
	target, err := NewTarget("netronome")
	if err != nil {
		t.Fatal(err)
	}
	weights := []float64{1, 1}
	if _, err := PredictColocatedContext(context.Background(), nfs, weights, target, wls); err != nil {
		t.Fatal(err)
	}
	ctx := &cancelAfterFirstCheck{Context: context.Background()}
	if _, err := PredictColocatedContext(ctx, nfs, weights, target, wls); !errors.Is(err, context.Canceled) {
		t.Fatalf("PredictColocatedContext(canceled after first check) = %v, want context.Canceled", err)
	}
}

// TestMeasureColocatedFacade smoke-tests the ground-truth side: two tenants
// simulate concurrently, results align with inputs, and the deactivated
// tenant's Measurement is empty.
func TestMeasureColocatedFacade(t *testing.T) {
	nfs := colocNFs(t, "firewall", "nat")
	tp, err := ParseTrafficProfile("packets=400,rate=2000000,flows=64,tcp=1.0,size=200")
	if err != nil {
		t.Fatal(err)
	}
	traces := make([]*Trace, 2)
	for i := range traces {
		tp.Seed = int64(100 + i)
		if traces[i], err = GenerateTraceContext(context.Background(), tp); err != nil {
			t.Fatal(err)
		}
	}
	target, err := NewTarget("netronome")
	if err != nil {
		t.Fatal(err)
	}
	res, err := MeasureColocatedContext(context.Background(), nfs, []float64{1, 1}, target, traces, 42, MeasureOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if len(r.Packets) != 400 {
			t.Fatalf("tenant %d: %d packet results, want 400", i, len(r.Packets))
		}
	}

	res, err = MeasureColocatedContext(context.Background(), nfs, []float64{1, 0}, target, traces, 42, MeasureOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res[1].Packets) != 0 {
		t.Fatalf("deactivated tenant was simulated: %d packets", len(res[1].Packets))
	}
}

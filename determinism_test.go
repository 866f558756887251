package clara

import (
	"bytes"
	"context"
	"math"
	"reflect"
	"runtime"
	"testing"

	"clara/internal/nicsim"
)

// measureOnce runs one seeded firewall simulation with faults and timeline
// recording enabled, returning the full Measurement.
func measureOnce(t *testing.T, nfo *NF, target *Target, m *Mapping, tr *Trace, seed int64) *Measurement {
	t.Helper()
	// No explicit fault seed: the fault RNG inherits the simulation seed, so
	// the different-seed check below exercises the corruption stream too.
	faults, err := ParseFaults("corrupt=0.05,memfault=emem:0.002")
	if err != nil {
		t.Fatal(err)
	}
	res, err := nfo.MeasureOptionsContext(context.Background(), target, m, tr, seed,
		MeasureOptions{Faults: faults, Timeline: true})
	if err != nil {
		t.Fatal(err)
	}
	// NaN != NaN under DeepEqual; normalize the one field that may hold it.
	if math.IsNaN(res.FlowCacheHitRate) {
		res.FlowCacheHitRate = -1
	}
	return res
}

// TestSimulatorDeterminism is the determinism property the timeline and
// fault-injection features must preserve: a fixed seed yields a bit-identical
// Result — packet latencies, fault report and per-packet timeline included —
// across repeated runs and across GOMAXPROCS settings, and different seeds
// genuinely change the injected corruption stream.
func TestSimulatorDeterminism(t *testing.T) {
	nfo, err := LoadNF("examples/firewall.nf")
	if err != nil {
		t.Fatal(err)
	}
	target, err := NewTarget("netronome")
	if err != nil {
		t.Fatal(err)
	}
	wl, err := ParseWorkload("")
	if err != nil {
		t.Fatal(err)
	}
	m, err := nfo.MapContext(context.Background(), target, wl, Hints{})
	if err != nil {
		t.Fatal(err)
	}
	prof, err := ParseTrafficProfile("packets=500,flows=64")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := GenerateTraceContext(context.Background(), prof)
	if err != nil {
		t.Fatal(err)
	}

	base := measureOnce(t, nfo, target, m, tr, 11)
	if base.Timeline == nil || len(base.Timeline.Hops) == 0 {
		t.Fatal("timeline requested but not recorded")
	}
	if base.Faults.Corrupted == 0 {
		t.Fatal("corrupt=0.05 injected no corruption; the seed comparison below would be vacuous")
	}

	for run := 0; run < 3; run++ {
		got := measureOnce(t, nfo, target, m, tr, 11)
		if !reflect.DeepEqual(base, got) {
			t.Fatalf("run %d: same seed produced a different Result", run)
		}
	}

	for _, procs := range []int{1, 2} {
		prev := runtime.GOMAXPROCS(procs)
		got := measureOnce(t, nfo, target, m, tr, 11)
		runtime.GOMAXPROCS(prev)
		if !reflect.DeepEqual(base, got) {
			t.Fatalf("GOMAXPROCS=%d changed the Result", procs)
		}
	}

	// The serialized timelines must match too — the Chrome export is part of
	// the deterministic surface (golden traces, diffable artifacts).
	var a, b bytes.Buffer
	if err := base.Timeline.WriteChromeTrace(&a); err != nil {
		t.Fatal(err)
	}
	again := measureOnce(t, nfo, target, m, tr, 11)
	if err := again.Timeline.WriteChromeTrace(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("Chrome trace export not byte-identical for the same seed")
	}

	// A different seed must shift the corruption stream: either a different
	// count, or different packets corrupted (visible as latency deltas).
	other := measureOnce(t, nfo, target, m, tr, 12)
	if reflect.DeepEqual(base, other) {
		t.Error("seeds 11 and 12 produced identical Results; fault RNG ignores the seed")
	}
}

// TestMeasureShardsNeverChangeResults pins that the simulator's answer
// depends on the window alone: with the default window an in-memory trace
// is one window, so every worker count measures exactly what the classic
// loop does — here on a 20000-packet trace, longer than the streamed
// engine's 16384-packet window, where restarting state would show.
func TestMeasureShardsNeverChangeResults(t *testing.T) {
	ctx := context.Background()
	nfo, err := LoadNF("examples/firewall.nf")
	if err != nil {
		t.Fatal(err)
	}
	target, err := NewTarget("netronome")
	if err != nil {
		t.Fatal(err)
	}
	const spec = "packets=20000,flows=4096,rate=60000,size=300"
	wl, err := ParseWorkload(spec)
	if err != nil {
		t.Fatal(err)
	}
	m, err := nfo.MapContext(context.Background(), target, wl, Hints{})
	if err != nil {
		t.Fatal(err)
	}
	prof, err := ParseTrafficProfile(spec)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := GenerateTraceContext(ctx, prof)
	if err != nil {
		t.Fatal(err)
	}
	const seed = 7
	sim, err := nicsim.NewContext(ctx, nicsim.Config{
		NIC: target, Prog: nfo.Program, Place: PlacementOf(m),
		Preload: nfo.Preload, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := sim.RunContext(ctx, tr)
	if err != nil {
		t.Fatal(err)
	}
	// NaN != NaN under DeepEqual; normalize the one field that may hold it.
	if math.IsNaN(want.FlowCacheHitRate) {
		want.FlowCacheHitRate = -1
	}
	for _, shards := range []int{0, 1, 2, 8, -1} {
		got, err := nfo.MeasureOptionsContext(ctx, target, m, tr, seed, MeasureOptions{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		if math.IsNaN(got.FlowCacheHitRate) {
			got.FlowCacheHitRate = -1
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("Shards %d: mean %.1f cycles over %d packets, classic loop %.1f over %d",
				shards, got.MeanLatency(), len(got.Packets), want.MeanLatency(), len(want.Packets))
		}
	}
}

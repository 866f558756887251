package nicsim

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"clara/internal/budget"
	"clara/internal/cir"
	"clara/internal/lnic"
	"clara/internal/nf"
	"clara/internal/workload"
)

// shardTestConfig mirrors diffSim's construction but returns the Config, so
// the sharded engine builds its own per-shard simulators from it.
func shardTestConfig(t testing.TB, spec nf.Spec, faults *Faults, timeline bool) Config {
	t.Helper()
	nic := lnic.Netronome()
	prog := spec.MustCompile()
	pl := DefaultPlacement(nic, prog)
	for _, st := range prog.State {
		pl.UseFlowCache[st.Name] = true
	}
	var f *Faults
	if faults != nil {
		cp := *faults
		f = &cp
	}
	return Config{
		NIC: nic, Prog: prog, Place: pl, Preload: spec.PreloadEntries,
		Seed: 42, Faults: f, Timeline: timeline,
	}
}

// normalizeResult rewrites NaN fields that reflect.DeepEqual cannot compare
// (NaN != NaN): FlowCacheHitRate is NaN whenever the mapping has no flow
// cache. The rewrite is applied identically to both sides of a comparison.
func normalizeResult(r *Result) *Result {
	if r != nil && math.IsNaN(r.FlowCacheHitRate) {
		r.FlowCacheHitRate = -1
	}
	return r
}

// outcome flattens a sharded run for comparison: the Result (direct or the
// error's Partial) plus the error's identity with the Partial stripped —
// Partials are compared as Results, where NaN normalization can reach them.
type outcome struct {
	res     *Result
	errDesc string
}

func outcomeOf(res *Result, err error) outcome {
	if err == nil {
		return outcome{res: normalizeResult(res)}
	}
	var ee *budget.ExceededError
	if errors.As(err, &ee) {
		r, _ := ee.Partial.(*Result)
		return outcome{
			res:     normalizeResult(r),
			errDesc: fmt.Sprintf("exceeded %s limit=%d stage=%s nf=%s", ee.Resource, ee.Limit, ee.Stage, ee.NF),
		}
	}
	var ce *budget.CanceledError
	if errors.As(err, &ce) {
		r, _ := ce.Partial.(*Result)
		return outcome{
			res:     normalizeResult(r),
			errDesc: fmt.Sprintf("canceled stage=%s nf=%s", ce.Stage, ce.NF),
		}
	}
	return outcome{errDesc: err.Error()}
}

func requireSameOutcome(t *testing.T, name string, want, got outcome, workers int) {
	t.Helper()
	if want.errDesc != got.errDesc {
		t.Fatalf("%s: workers=%d error mismatch\nwant: %s\ngot:  %s", name, workers, want.errDesc, got.errDesc)
	}
	if (want.res == nil) != (got.res == nil) {
		t.Fatalf("%s: workers=%d result nil=%v, want nil=%v", name, workers, got.res == nil, want.res == nil)
	}
	if want.res == nil || reflect.DeepEqual(want.res, got.res) {
		return
	}
	if !reflect.DeepEqual(want.res.Packets, got.res.Packets) {
		for i := range want.res.Packets {
			if i < len(got.res.Packets) && !reflect.DeepEqual(want.res.Packets[i], got.res.Packets[i]) {
				t.Fatalf("%s: workers=%d packet %d differs\nwant: %+v\ngot:  %+v",
					name, workers, i, want.res.Packets[i], got.res.Packets[i])
			}
		}
		t.Fatalf("%s: workers=%d packet count %d, want %d",
			name, workers, len(got.res.Packets), len(want.res.Packets))
	}
	t.Fatalf("%s: workers=%d results differ beyond packets\nwant: faults=%+v hits=%v fchr=%v errs=%d tl=%v\ngot:  faults=%+v hits=%v fchr=%v errs=%d tl=%v",
		name, workers,
		want.res.Faults, want.res.CacheHitRate, want.res.FlowCacheHitRate, want.res.Errors, want.res.Timeline != nil,
		got.res.Faults, got.res.CacheHitRate, got.res.FlowCacheHitRate, got.res.Errors, got.res.Timeline != nil)
}

// TestShardInvariance is the sharded engine's differential suite: the full
// NF corpus, with fault injection and timelines, under healthy budgets and
// budgets tripping mid-trace, must produce reflect.DeepEqual Results (and
// identical typed errors) at 1, 2, 4 and 8 workers. Only the worker count
// varies — the window is fixed — so this pins the invariance contract:
// -shards is a scheduling knob, never a semantics knob.
func TestShardInvariance(t *testing.T) {
	p := workload.DefaultProfile()
	p.Packets = 300
	p.Flows = 48
	tr, err := workload.GenerateContext(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	tr.Decoded()
	faults := &Faults{
		Corrupt:  0.08,
		Degrade:  map[string]float64{"checksum": 2},
		MemFault: map[string]float64{"emem": 0.02},
		QueueCap: 64,
		Seed:     9,
	}
	const window = 64 // 300 packets -> 5 shards, last one ragged
	scenarios := []struct {
		name   string
		faults *Faults
		lim    budget.Limits
	}{
		{"healthy", nil, budget.Limits{}},
		{"faults", faults, budget.Limits{}},
		// 150 lands strictly inside shard 2 of 5; 192 on a shard boundary.
		{"events-trip", faults, budget.Limits{SimEvents: 150}},
		{"events-boundary", nil, budget.Limits{SimEvents: 192}},
		{"steps-trip", nil, budget.Limits{SimSteps: 40}},
	}
	for _, name := range nf.Names() {
		spec := nf.All()[name]
		t.Run(name, func(t *testing.T) {
			for _, sc := range scenarios {
				cfg := shardTestConfig(t, spec, sc.faults, true)
				ctx := budget.With(context.Background(), sc.lim)
				res, err := RunShardedContext(ctx, cfg, tr, ShardOpts{Workers: 1, Window: window})
				want := outcomeOf(res, err)
				for _, workers := range []int{2, 4, 8} {
					res, err := RunShardedContext(ctx, cfg, tr, ShardOpts{Workers: workers, Window: window})
					requireSameOutcome(t, name+"/"+sc.name, want, outcomeOf(res, err), workers)
				}
			}
		})
	}
}

// TestShardedSingleWindowMatchesUnsharded pins the degenerate case: a trace
// that fits one window runs the classic loop, bit-identical to RunContext —
// goldens and callers that never opt into sharding see no change at all.
func TestShardedSingleWindowMatchesUnsharded(t *testing.T) {
	p := workload.DefaultProfile()
	p.Packets = 128
	p.Flows = 16
	tr, err := workload.GenerateContext(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	spec := nf.All()[nf.Names()[0]]
	cfg := shardTestConfig(t, spec, nil, true)
	ctx := context.Background()

	sim, err := NewContext(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sim.RunContext(ctx, tr)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunShardedContext(ctx, cfg, tr, ShardOpts{Workers: 4, Window: len(tr.Packets)})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(normalizeResult(want), normalizeResult(got)) {
		t.Fatalf("single-window sharded run differs from RunContext")
	}
}

// TestMergedStatistics is the Result merge-safety regression: merged
// percentiles and means must be computed over the concatenated latencies,
// not inherited from any shard's sync.Once-cached sorted slice — even when
// a shard's cache was already warmed before the merge.
func TestMergedStatistics(t *testing.T) {
	mk := func(lats ...float64) *Result {
		r := &Result{CacheHitRate: map[string]float64{}}
		for _, l := range lats {
			r.Packets = append(r.Packets, PacketResult{Latency: l})
		}
		return r
	}
	a := mk(10, 20, 30)
	b := mk(1000, 2000, 3000)
	// Poison scenario: a's statistics cache is warmed pre-merge. A merge
	// that copied Results by value or adopted a.lat would report b-less
	// statistics.
	if got := a.Percentile(100); got != 30 {
		t.Fatalf("warmup percentile = %v, want 30", got)
	}
	merged, err := mergeShards(context.Background(), Config{Prog: &cir.Program{Name: "merge-test"}}, []shardRun{{res: a}, {res: b}})
	if err != nil {
		t.Fatal(err)
	}
	if got := merged.Percentile(100); got != 3000 {
		t.Fatalf("merged max = %v, want 3000 (merge reused a shard's cached latency slice?)", got)
	}
	if got := merged.Percentile(0); got != 10 {
		t.Fatalf("merged min = %v, want 10", got)
	}
	if got, want := merged.MeanLatency(), (10+20+30+1000+2000+3000)/6.0; got != want {
		t.Fatalf("merged mean = %v, want %v", got, want)
	}
	// The source shard's own statistics stay intact.
	if got := a.Percentile(100); got != 30 {
		t.Fatalf("shard statistics corrupted by merge: %v", got)
	}
}

// TestMergedStatisticsMatchUnsharded runs a real multi-window sharded
// measurement and checks its quantiles against a manual computation over
// the merged packet list, at two worker counts.
func TestMergedStatisticsMatchUnsharded(t *testing.T) {
	p := workload.DefaultProfile()
	p.Packets = 300
	p.Flows = 32
	tr, err := workload.GenerateContext(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	spec := nf.All()[nf.Names()[0]]
	cfg := shardTestConfig(t, spec, nil, false)
	ctx := context.Background()
	var first float64
	for i, workers := range []int{1, 8} {
		res, err := RunShardedContext(ctx, cfg, tr, ShardOpts{Workers: workers, Window: 64})
		if err != nil {
			t.Fatal(err)
		}
		fresh := &Result{Packets: res.Packets}
		for _, q := range []float64{0, 50, 99, 100} {
			if got, want := res.Percentile(q), fresh.Percentile(q); got != want {
				t.Fatalf("workers=%d p%v = %v, want %v", workers, q, got, want)
			}
		}
		if i == 0 {
			first = res.Percentile(99)
		} else if got := res.Percentile(99); got != first {
			t.Fatalf("p99 differs across worker counts: %v vs %v", got, first)
		}
	}
}

// TestShardSeedDerivation pins the stream-derivation contract: shard 0 is
// the base stream, derived streams are splitmix-decorrelated — in
// particular NOT additive in the shard index.
func TestShardSeedDerivation(t *testing.T) {
	if got := shardSeed(42, 0); got != 42 {
		t.Fatalf("shard 0 must keep the base seed, got %d", got)
	}
	seen := map[int64]int{42: 0}
	for w := 1; w <= 8; w++ {
		s := shardSeed(42, w)
		if prev, dup := seen[s]; dup {
			t.Fatalf("shard %d collides with shard %d: seed %d", w, prev, s)
		}
		seen[s] = w
	}
	d1 := shardSeed(42, 2) - shardSeed(42, 1)
	d2 := shardSeed(42, 3) - shardSeed(42, 2)
	if d1 == d2 {
		t.Fatalf("derivation looks additive: consecutive deltas equal (%d)", d1)
	}
	if shardSeed(1, 3) == shardSeed(2, 3) {
		t.Fatal("different base seeds produced the same shard stream")
	}
}

// TestRNGZeroSeedGuard regression-tests the base RNG's zero-state guard:
// the one seed whose affine map lands exactly on 0 used to freeze the
// xorshift at 0 forever (vc_random returning 0 for every packet).
func TestRNGZeroSeedGuard(t *testing.T) {
	mul := uint64(2862933555777941757)
	add := uint64(3037000493)
	// Newton iteration for the odd multiplier's inverse mod 2^64.
	inv := mul
	for i := 0; i < 6; i++ {
		inv *= 2 - mul*inv
	}
	if mul*inv != 1 {
		t.Fatal("bad modular inverse")
	}
	badSeed := int64((0 - add) * inv)
	if uint64(badSeed)*mul+add != 0 {
		t.Fatalf("seed %d does not map to rngState 0; test is stale", badSeed)
	}
	spec := nf.All()[nf.Names()[0]]
	cfg := shardTestConfig(t, spec, nil, false)
	cfg.Seed = badSeed
	sim, err := NewContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sim.rngState == 0 {
		t.Fatal("rngState seeded to 0: the xorshift is frozen")
	}
	a, b := sim.random(), sim.random()
	if a == 0 && b == 0 {
		t.Fatal("base RNG stuck at zero")
	}
	if a == b {
		t.Fatalf("base RNG not advancing: %d repeated", a)
	}
}

// TestStateSeedDecollision regression-tests the state-object seed
// derivation: two objects whose names merely share a length used to get
// byte-identical synthesized contents (seed + len(name)).
func TestStateSeedDecollision(t *testing.T) {
	if stateSeed(42, "abcd") == stateSeed(42, "wxyz") {
		t.Fatal("same-length names still collide")
	}
	if stateSeed(42, "routes") == stateSeed(43, "routes") {
		t.Fatal("state seed ignores the run seed")
	}
	if stateSeed(42, "routes") != stateSeed(42, "routes") {
		t.Fatal("state seed is not deterministic")
	}
	// End to end: two same-length-named LPMs synthesized under one run seed
	// must install different rule sets.
	mkObj := func(name string) cir.StateObj {
		return cir.StateObj{Name: name, Kind: cir.StateLPM, KeySize: 4, ValueSize: 4, Capacity: 128}
	}
	a := newLPMState(mkObj("aaaa"), 0, 0, 64, stateSeed(42, "aaaa"))
	b := newLPMState(mkObj("bbbb"), 0, 0, 64, stateSeed(42, "bbbb"))
	if reflect.DeepEqual(a.keys, b.keys) && reflect.DeepEqual(a.nhs, b.nhs) {
		t.Fatal("same-length-named LPM tables are byte-identical: contents still collide")
	}
}

// TestShardedStreamMatchesInMemory streams a pcap through the sharded
// engine and requires the exact merged Result an in-memory sharded run of
// the same bytes produces, healthy and under a mid-capture budget trip.
func TestShardedStreamMatchesInMemory(t *testing.T) {
	p := workload.DefaultProfile()
	p.Packets = 300
	p.Flows = 32
	gen, err := workload.GenerateContext(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := gen.WritePcap(&buf); err != nil {
		t.Fatal(err)
	}
	pcapBytes := buf.Bytes()
	// The in-memory side reads the same pcap bytes, so both sides see
	// identical (pcap-quantized) arrival times.
	tr, err := workload.ReadPcapContext(context.Background(), bytes.NewReader(pcapBytes), "stream-test")
	if err != nil {
		t.Fatal(err)
	}
	spec := nf.All()[nf.Names()[0]]
	cfg := shardTestConfig(t, spec, nil, true)
	const window = 64

	t.Run("healthy", func(t *testing.T) {
		ctx := context.Background()
		want, err := RunShardedContext(ctx, cfg, tr, ShardOpts{Workers: 3, Window: window})
		if err != nil {
			t.Fatal(err)
		}
		src, err := workload.NewTraceReader(bytes.NewReader(pcapBytes), "stream-test")
		if err != nil {
			t.Fatal(err)
		}
		got, err := RunShardedStreamContext(ctx, cfg, src, ShardOpts{Workers: 3, Window: window})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(normalizeResult(want), normalizeResult(got)) {
			t.Fatal("streamed result differs from in-memory sharded result")
		}
	})

	t.Run("budget-trip", func(t *testing.T) {
		// Both engines stop after exactly 100 packets; the streaming side
		// trips in the reader (trace-packets/ingest), the in-memory side in
		// the simulator (sim-events/simulate). The merged partial Results —
		// the packets that did run — must be identical.
		ctx := budget.With(context.Background(), budget.Limits{SimEvents: 100})
		_, err := RunShardedContext(ctx, cfg, tr, ShardOpts{Workers: 3, Window: window})
		wantOut := outcomeOf(nil, err)
		if wantOut.res == nil || len(wantOut.res.Packets) != 100 {
			t.Fatalf("in-memory partial = %+v, want 100 packets", wantOut.res)
		}
		src, err := workload.NewTraceReader(bytes.NewReader(pcapBytes), "stream-test")
		if err != nil {
			t.Fatal(err)
		}
		_, serr := RunShardedStreamContext(ctx, cfg, src, ShardOpts{Workers: 3, Window: window})
		gotOut := outcomeOf(nil, serr)
		var ee *budget.ExceededError
		if !errors.As(serr, &ee) || ee.Resource != "trace-packets" || ee.Stage != "ingest" {
			t.Fatalf("stream error = %v, want trace-packets/ingest budget trip", serr)
		}
		if !reflect.DeepEqual(wantOut.res, gotOut.res) {
			t.Fatalf("partial results differ: stream %d packets, in-memory %d",
				len(gotOut.res.Packets), len(wantOut.res.Packets))

		}
	})
}

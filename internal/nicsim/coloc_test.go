package nicsim

import (
	"cmp"
	"context"
	"errors"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"clara/internal/budget"
	"clara/internal/lnic"
	"clara/internal/nf"
	"clara/internal/workload"
)

// colocTrace generates a deterministic trace for one tenant; seeds differ so
// co-resident tenants never replay identical packets.
func colocTrace(t testing.TB, packets int, seed int64, rate float64) *workload.Trace {
	t.Helper()
	p := workload.DefaultProfile()
	p.Packets = packets
	p.Flows = 32
	p.Seed = seed
	if rate > 0 {
		p.RatePPS = rate
	}
	tr, err := workload.GenerateContext(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	tr.Decoded()
	return tr
}

// colocTestConfig builds a two-tenant configuration over one Netronome from
// named corpus NFs. Accelerator-heavy placements make shared-server
// contention observable at modest rates.
func colocTestConfig(t testing.TB, specs []string, weights []float64, faults *Faults, timeline bool) ColocConfig {
	t.Helper()
	cfg := ColocConfig{NIC: lnic.Netronome(), Seed: 42, Faults: faults, Timeline: timeline}
	for i, name := range specs {
		spec := nf.All()[name]
		prog := spec.MustCompile()
		pl := DefaultPlacement(cfg.NIC, prog)
		for _, st := range prog.State {
			pl.UseFlowCache[st.Name] = true
		}
		pl.ChecksumOnAccel = true
		cfg.Tenants = append(cfg.Tenants, Tenant{
			Prog: prog, Place: pl, Preload: spec.PreloadEntries,
			Weight: weights[i],
			Trace:  colocTrace(t, 180, 100+int64(i), 4e7),
		})
	}
	return cfg
}

func colocOutcome(res []*Result, err error) []outcome {
	if err == nil {
		out := make([]outcome, len(res))
		for i, r := range res {
			out[i] = outcomeOf(r, nil)
		}
		return out
	}
	var partials []*Result
	var ee *budget.ExceededError
	var ce *budget.CanceledError
	if errors.As(err, &ee) {
		partials, _ = ee.Partial.([]*Result)
	} else if errors.As(err, &ce) {
		partials, _ = ce.Partial.([]*Result)
	}
	out := make([]outcome, len(partials))
	for i, r := range partials {
		o := outcomeOf(r, err)
		out[i] = o
	}
	return out
}

// TestColocDeterminism is the co-located engine's determinism contract:
// with two tenants sharing one NIC — healthy, fault-injected, with the
// SimEvents budget tripping mid-sequence, and canceled before the run — two
// runs of one configuration give reflect.DeepEqual per-tenant Results and
// identical typed errors, whose Partial holds one Result per tenant.
func TestColocDeterminism(t *testing.T) {
	faults := &Faults{
		Corrupt:  0.05,
		Degrade:  map[string]float64{"checksum": 2},
		MemFault: map[string]float64{"emem": 0.02},
		Seed:     9,
	}
	scenarios := []struct {
		name     string
		faults   *Faults
		lim      budget.Limits
		canceled bool
		wantErr  error
	}{
		{"healthy", nil, budget.Limits{}, false, nil},
		{"faults", faults, budget.Limits{}, false, nil},
		// 360 merged events: the cap trips at event 200.
		{"events-trip", nil, budget.Limits{SimEvents: 200}, false, budget.Exceeded},
		{"canceled", nil, budget.Limits{}, true, context.Canceled},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			cfg := colocTestConfig(t, []string{"firewall", "nat"}, []float64{2, 1}, sc.faults, true)
			ctx := budget.With(context.Background(), sc.lim)
			if sc.canceled {
				cctx, cancel := context.WithCancel(ctx)
				cancel()
				ctx = cctx
			}
			run := func() []outcome {
				res, err := RunColocatedContext(ctx, cfg, ShardOpts{})
				if !errors.Is(err, sc.wantErr) {
					t.Fatalf("got error %v, want %v", err, sc.wantErr)
				}
				return colocOutcome(res, err)
			}
			want, got := run(), run()
			if len(want) != len(cfg.Tenants) || len(got) != len(want) {
				t.Fatalf("got %d and %d outcomes, want %d", len(want), len(got), len(cfg.Tenants))
			}
			for ten := range want {
				if !reflect.DeepEqual(want[ten], got[ten]) {
					t.Fatalf("tenant %d: the second run differs from the first (errors %q, %q)",
						ten, want[ten].errDesc, got[ten].errDesc)
				}
			}
		})
	}
}

// TestColocSingleTenantMatchesSharded pins the degenerate case the predict
// layer leans on: one active tenant (alone, or beside zero-weight ones) sees
// no shared arbitration state, the full thread pool and a zero address base,
// so its Result is DeepEqual to a solo sharded run of its trace after a
// stable sort by arrival — the order the merged sequence steps it in — and
// the zero-weight tenant's Result is empty (the no-op contract). The
// out-of-order case swaps two arrivals, so the merged sequence steps the
// tenant's packets out of index order.
func TestColocSingleTenantMatchesSharded(t *testing.T) {
	ctx := context.Background()
	for _, swap := range []bool{false, true} {
		cfg := colocTestConfig(t, []string{"firewall", "nat"}, []float64{1, 0}, nil, false)
		tr := cfg.Tenants[0].Trace
		sorted := tr
		if swap {
			pk := slices.Clone(tr.Packets)
			pk[60].ArrivalNs, pk[70].ArrivalNs = pk[70].ArrivalNs, pk[60].ArrivalNs
			cfg.Tenants[0].Trace = &workload.Trace{Name: tr.Name, Packets: pk}
			pk = slices.Clone(pk)
			slices.SortStableFunc(pk, func(a, b workload.TracePacket) int {
				return cmp.Compare(a.ArrivalNs, b.ArrivalNs)
			})
			sorted = &workload.Trace{Name: tr.Name, Packets: pk}
		}

		res, err := RunColocatedContext(ctx, cfg, ShardOpts{})
		if err != nil {
			t.Fatal(err)
		}
		solo := Config{
			NIC: cfg.NIC, Prog: cfg.Tenants[0].Prog, Place: cfg.Tenants[0].Place,
			Preload: cfg.Tenants[0].Preload, Seed: cfg.Seed,
		}
		want, err := RunShardedContext(ctx, solo, sorted, ShardOpts{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(normalizeResult(res[0]), normalizeResult(want)) {
			t.Fatalf("out of order %v: single-active-tenant co-located run differs from the solo sharded run of the arrival-sorted trace", swap)
		}
		if res[0].Contention != nil {
			t.Fatalf("single-active-tenant run reported contention: %+v", res[0].Contention)
		}
		if len(res[1].Packets) != 0 || res[1].Errors != 0 {
			t.Fatalf("zero-weight tenant was simulated: %d packets, %d errors", len(res[1].Packets), res[1].Errors)
		}
	}
}

// TestColocContentionAccounted drives two accelerator-heavy tenants at a
// rate that saturates the shared flow-cache and checksum engines and checks
// the cross-tenant stalls show up in Result.Contention — with wait counts
// and cycles consistent, and nowhere on a solo run.
func TestColocContentionAccounted(t *testing.T) {
	cfg := colocTestConfig(t, []string{"firewall", "nat"}, []float64{1, 1}, nil, false)
	res, err := RunColocatedContext(context.Background(), cfg, ShardOpts{Workers: 2, Window: 96})
	if err != nil {
		t.Fatal(err)
	}
	totalStall := 0.0
	for ten, r := range res {
		if r.Contention == nil {
			t.Fatalf("tenant %d: co-located run reported no ContentionReport", ten)
		}
		totalStall += r.Contention.StallCycles
		var cyc float64
		var waits uint64
		for _, c := range r.Contention.WaitCycles {
			cyc += c
		}
		for _, n := range r.Contention.Waits {
			waits += n
		}
		if math.Abs(cyc-r.Contention.StallCycles) > 1e-6 {
			t.Fatalf("tenant %d: per-resource cycles %v don't sum to stall total %v", ten, cyc, r.Contention.StallCycles)
		}
		if (waits == 0) != (r.Contention.StallCycles == 0) {
			t.Fatalf("tenant %d: wait count %d inconsistent with stall cycles %v", ten, waits, r.Contention.StallCycles)
		}
	}
	if totalStall <= 0 {
		t.Fatalf("two saturating tenants recorded zero cross-tenant stall cycles")
	}
}

// TestUsageSharedAcrossColocatedSims pins the budget.Usage contract the
// co-located engine leans on: the N tenant Sims of one run all accumulate
// into ONE context-carried Usage, and the totals are exact — both tenants'
// packets counted once each.
func TestUsageSharedAcrossColocatedSims(t *testing.T) {
	cfg := colocTestConfig(t, []string{"firewall", "nat"}, []float64{1, 1}, nil, false)
	var want int64
	for _, ten := range cfg.Tenants {
		want += int64(len(ten.Trace.Packets))
	}
	usage := &budget.Usage{}
	ctx := budget.WithUsage(context.Background(), usage)
	if _, err := RunColocatedContext(ctx, cfg, ShardOpts{}); err != nil {
		t.Fatal(err)
	}
	snap := usage.Snapshot(budget.Limits{})
	if snap.SimEvents != want {
		t.Fatalf("shared usage counted %d sim events, want %d", snap.SimEvents, want)
	}
	if snap.SimSteps <= 0 {
		t.Fatal("no sim steps accumulated")
	}
}

// TestMergedContention is the shard-merge regression for the contention
// counters: stall cycles and per-resource wait counts must merge by summing
// raw counts (never averaging rates, matching the cache-hit-rate rule), and
// a contention-free merge must keep Contention nil.
func TestMergedContention(t *testing.T) {
	cfg := shardTestConfig(t, nf.All()["firewall"], nil, false)
	mk := func(stall float64, waits uint64) *Result {
		return &Result{
			CacheHitRate: map[string]float64{},
			Contention: &ContentionReport{
				StallCycles: stall,
				Waits:       map[string]uint64{"accel:flowcache": waits},
				WaitCycles:  map[string]float64{"accel:flowcache": stall},
			},
		}
	}
	runs := []shardRun{{res: mk(100, 4)}, {res: mk(50, 2)}}
	merged, err := mergeShards(context.Background(), cfg, runs)
	if err != nil {
		t.Fatal(err)
	}
	c := merged.Contention
	if c == nil {
		t.Fatal("merged Contention is nil")
	}
	if c.StallCycles != 150 {
		t.Fatalf("merged stall cycles = %v, want 150", c.StallCycles)
	}
	if c.Waits["accel:flowcache"] != 6 {
		t.Fatalf("merged waits = %d, want 6", c.Waits["accel:flowcache"])
	}
	if c.WaitCycles["accel:flowcache"] != 150 {
		t.Fatalf("merged wait cycles = %v, want 150", c.WaitCycles["accel:flowcache"])
	}

	clean := []shardRun{
		{res: &Result{CacheHitRate: map[string]float64{}}},
		{res: &Result{CacheHitRate: map[string]float64{}}},
	}
	merged, err = mergeShards(context.Background(), cfg, clean)
	if err != nil {
		t.Fatal(err)
	}
	if merged.Contention != nil {
		t.Fatalf("contention-free merge allocated a ContentionReport: %+v", merged.Contention)
	}
}

// TestColocFlowCacheIsPerTenant is the regression test for co-resident
// tenants sharing flow-cache entries. Two firewalls replay one trace on a NIC
// whose flow cache all tenants share. When entries were keyed by state name
// alone, a lookup of tenant 1 hit the entry tenant 0 had cached for the same
// flow under the same name, "conns", and latched tenant 0's table entry. The
// run must equal, packet for packet, a control in which nothing could be
// shared: there tenant 1's table is named "conns2" and sits in another state
// slot, behind an unused array placed in another memory region, so its
// table's address and every access it makes stay the same.
func TestColocFlowCacheIsPerTenant(t *testing.T) {
	tr := colocTrace(t, 400, 7, 4e7)
	run := func(control bool) []*Result {
		cfg := ColocConfig{NIC: lnic.Netronome(), Seed: 42}
		for i := 0; i < 2; i++ {
			spec := nf.Firewall(4096)
			table := "conns"
			if control && i == 1 {
				table = "conns2"
				spec.Source = strings.Replace(strings.ReplaceAll(spec.Source, "conns", table),
					"state "+table, "state pad : array<8>[1];\n\tstate "+table, 1)
			}
			prog := spec.MustCompile()
			pl := DefaultPlacement(cfg.NIC, prog)
			pl.UseFlowCache[table] = true
			if _, ok := pl.StateMem["pad"]; ok {
				pl.StateMem["pad"] = 0
			}
			cfg.Tenants = append(cfg.Tenants, Tenant{Prog: prog, Place: pl, Weight: 1, Trace: tr})
		}
		res, err := RunColocatedContext(context.Background(), cfg, ShardOpts{Workers: 1, Window: len(tr.Packets)})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	shared, control := run(false), run(true)
	for ti := range shared {
		if !reflect.DeepEqual(shared[ti].Packets, control[ti].Packets) {
			differ := 0
			for i := range shared[ti].Packets {
				if i < len(control[ti].Packets) && shared[ti].Packets[i] != control[ti].Packets[i] {
					differ++
				}
			}
			t.Errorf("tenant %d: %d of %d packets differ from the control, whose tenants share no flow-cache key",
				ti, differ, len(shared[ti].Packets))
		}
		if shared[ti].FlowCacheHitRate != control[ti].FlowCacheHitRate {
			t.Errorf("tenant %d: flow-cache hit rate %v, control %v",
				ti, shared[ti].FlowCacheHitRate, control[ti].FlowCacheHitRate)
		}
	}
}

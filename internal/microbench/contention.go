package microbench

import (
	"context"
	"fmt"
	"math"

	"clara/internal/budget"
	"clara/internal/cir"
	"clara/internal/lnic"
	"clara/internal/nicsim"
	"clara/internal/obs"
	"clara/internal/workload"
)

// This file fits the per-resource slowdown curves the co-location predictor
// consumes (lnic.ContentionModel). The technique is the §3.2 probing idea
// turned on contention: for each shared resource kind, run a probe NF that
// stresses that resource alone, then re-run it with k ∈ {1,2,3} identical
// synthetic contender tenants through the multi-tenant simulator. The
// slowdown y(k) = mean latency with k contenders / solo mean latency, and
// the x-axis is the contenders' aggregate analytic utilization of the
// resource — the same rate×demand/(servers×clock) units the predictor
// computes, so fit and application agree by construction.

// contTenants is the maximum synthetic contender count probed per resource;
// curves get one point per k ∈ [1, contTenants].
const contTenants = 3

// contUtilTarget is the per-tenant utilization each probe aims at on its
// resource; probe rates are derived from it analytically.
const contUtilTarget = 0.35

// contProbe stresses one shared resource kind.
type contProbe struct {
	kind  string
	prog  *cir.Program
	place nicsim.Placement
	flows int
	// util is the per-tenant analytic utilization of the target resource at
	// rate; both are derived from the profile's databook parameters.
	util float64
	rate float64
}

// FitContentionContext fits a contention model for the NIC by probing its
// shared resources under synthetic contender load, bounded by ctx and its
// budget: every probe simulation inherits ctx, so cancellation mid-fit
// returns promptly with a typed error. The fit is fully deterministic —
// fixed seeds, and the co-located engine steps each run on one goroutine —
// so one model per profile can be memoized.
func FitContentionContext(ctx context.Context, nic *lnic.LNIC) (*lnic.ContentionModel, error) {
	model := &lnic.ContentionModel{NIC: nic.Name, Curves: map[string]lnic.SlowdownCurve{}}
	for _, probe := range contProbes(nic) {
		if err := budget.Canceled(ctx, "microbench", probe.prog.Name); err != nil {
			return nil, err
		}
		obs.From(ctx).Counter("clara_microbench_contention_probes_total").Add(1)
		solo, err := contMeanLatency(ctx, nic, probe, 1)
		if err != nil {
			return nil, fmt.Errorf("microbench: %s contention probe solo: %w", probe.kind, err)
		}
		var curve lnic.SlowdownCurve
		prev := 1.0
		for k := 1; k <= contTenants; k++ {
			lat, err := contMeanLatency(ctx, nic, probe, k+1)
			if err != nil {
				return nil, fmt.Errorf("microbench: %s contention probe x%d: %w", probe.kind, k, err)
			}
			y := 1.0
			if solo > 0 {
				y = lat / solo
			}
			// Slowdowns are ≥ 1 and monotone in competing load by
			// construction; clamp out simulator noise that says otherwise.
			y = math.Max(1, math.Max(prev, y))
			prev = y
			curve = append(curve, lnic.CurvePoint{Load: float64(k) * probe.util, Slowdown: y})
		}
		model.Curves[probe.kind] = curve
	}
	return model, nil
}

// contMeanLatency runs tenants identical copies of the probe through the
// co-located engine (decorrelated per-tenant traces, equal weights) and
// returns the mean packet latency averaged across all tenants. The average
// matters: the engine breaks same-cycle ties by tenant index, so with few
// contenders the waits land disproportionately on the higher-index tenants —
// reading only tenant 0 would under-report contention. tenants == 1 is the
// solo baseline on the same engine, so the ratio isolates what sharing adds.
func contMeanLatency(ctx context.Context, nic *lnic.LNIC, probe contProbe, tenants int) (float64, error) {
	cfg := nicsim.ColocConfig{NIC: nic, Seed: 42}
	for t := 0; t < tenants; t++ {
		p := workload.Profile{
			Name: "probe", Packets: 160, RatePPS: probe.rate, Flows: probe.flows,
			TCPFraction: 1, PayloadBytes: 64, Seed: 9 + int64(t),
		}
		tr, err := workload.GenerateContext(ctx, p)
		if err != nil {
			return 0, err
		}
		cfg.Tenants = append(cfg.Tenants, nicsim.Tenant{
			Prog: probe.prog, Place: probe.place, Weight: 1, Trace: tr,
		})
	}
	res, err := nicsim.RunColocatedContext(ctx, cfg, nicsim.ShardOpts{})
	if err != nil {
		return 0, err
	}
	sum := 0.0
	for t, r := range res {
		if r.Errors > 0 {
			return 0, fmt.Errorf("tenant %d: %d probe errors", t, r.Errors)
		}
		sum += r.MeanLatency()
	}
	return sum / float64(len(res)), nil
}

// contProbes builds the probe set the profile supports. Each probe's rate
// targets contUtilTarget utilization of its resource per tenant.
func contProbes(nic *lnic.LNIC) []contProbe {
	clockHz := nic.ClockGHz * 1e9
	var probes []contProbe

	// Hubs: every packet crosses the switching hubs, so a no-op NF isolates
	// them. Demand is the busiest hub's per-packet service time over the
	// simulator's hub server width.
	if len(nic.Hubs) > 0 {
		demand := 0.0
		for _, h := range nic.Hubs {
			if h.ServiceCycles > demand {
				demand = h.ServiceCycles
			}
		}
		if demand > 0 {
			b := cir.NewBuilder("probe-cont-hub")
			b.ReturnConst(cir.VerdictPass)
			prog := b.MustProgram()
			probes = append(probes, contProbe{
				kind: lnic.ResHub, prog: prog, place: nicsim.DefaultPlacement(nic, prog),
				flows: 8, util: contUtilTarget,
				rate: contUtilTarget * 8 * clockHz / demand,
			})
		}
	}

	// Accelerators: the flow cache when present (single-flow traffic makes
	// every packet a hit on the accelerator), the checksum engine otherwise.
	if ids := nic.Accelerators("flowcache"); len(ids) > 0 {
		u := nic.Units[ids[0]]
		servers := float64(len(ids) * u.Threads)
		b := cir.NewBuilder("probe-cont-fc")
		st := b.DeclareState(cir.StateObj{Name: "t", Kind: cir.StateMap, KeySize: 13, ValueSize: 8, Capacity: 1024})
		k := b.VCall(cir.VCFlowKey, "")
		found := b.VCall(cir.VCMapLookup, st, k)
		miss := b.NewBlock("miss")
		done := b.NewBlock("done")
		b.Branch(found, done, miss)
		b.SetBlock(miss)
		one := b.Const(1)
		b.VCallVoid(cir.VCMapPut, st, k, one, one)
		b.Jump(done)
		b.SetBlock(done)
		b.ReturnConst(cir.VerdictPass)
		prog := b.MustProgram()
		pl := nicsim.DefaultPlacement(nic, prog)
		pl.UseFlowCache = map[string]bool{"t": true}
		probes = append(probes, contProbe{
			kind: lnic.ResAccel, prog: prog, place: pl,
			flows: 1, util: contUtilTarget,
			rate: contUtilTarget * servers * clockHz / u.FixedCycles,
		})
	} else if ids := nic.Accelerators("checksum"); len(ids) > 0 {
		u := nic.Units[ids[0]]
		servers := float64(len(ids) * u.Threads)
		demand := u.ServiceCycles(84) // 64 B payload + L4 header
		b := cir.NewBuilder("probe-cont-cksum")
		proto := b.Const(cir.ProtoTCP)
		b.VCall(cir.VCGetHdr, "", proto)
		b.VCall(cir.VCChecksum, "", proto)
		b.ReturnConst(cir.VerdictPass)
		prog := b.MustProgram()
		pl := nicsim.DefaultPlacement(nic, prog)
		pl.ChecksumOnAccel = true
		probes = append(probes, contProbe{
			kind: lnic.ResAccel, prog: prog, place: pl,
			flows: 8, util: contUtilTarget,
			rate: contUtilTarget * servers * clockHz / demand,
		})
	}

	// Memory: array reads pinned to the deepest cached region (falling back
	// to any reachable one). The co-located simulator shares caches between
	// tenants, so whatever cross-tenant eviction pressure exists shows up
	// here; on profiles whose memories are effectively contention-free the
	// curve fits flat at 1× — which is the honest answer.
	core := representativeCoreID(nic)
	region, demand := -1, 0.0
	for r := range nic.Mems {
		acc, ok := nic.AccessCycles(core, r, false)
		if !ok {
			continue
		}
		m := nic.Mems[r]
		if m.CacheBytes > 0 {
			acc = m.CacheHitCycles
		}
		if region < 0 || m.CacheBytes > 0 {
			region, demand = r, 8*acc
		}
	}
	if region >= 0 && demand > 0 {
		b := cir.NewBuilder("probe-cont-mem")
		st := b.DeclareState(cir.StateObj{Name: "a", Kind: cir.StateArray, ValueSize: 8, Capacity: 64})
		idx := b.Const(3)
		for i := 0; i < 8; i++ {
			b.VCall(cir.VCArrRead, st, idx)
		}
		b.ReturnConst(cir.VerdictPass)
		prog := b.MustProgram()
		pl := nicsim.DefaultPlacement(nic, prog)
		pl.StateMem = map[string]int{"a": region}
		probes = append(probes, contProbe{
			kind: lnic.ResMem, prog: prog, place: pl,
			flows: 8, util: contUtilTarget,
			rate: contUtilTarget * clockHz / demand,
		})
	}
	return probes
}

package nicsim

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"sort"

	"clara/internal/budget"
	"clara/internal/cir"
	"clara/internal/lnic"
	"clara/internal/obs"
	"clara/internal/runner"
	"clara/internal/workload"
)

// This file is the multi-tenant co-location engine: it runs N compiled NFs
// concurrently on ONE logical SmartNIC, sharing its islands, accelerator
// engines, memory-region caches and hub queues, and returns one Result per
// tenant. The arbitration rule is:
//
//   - General cores are hard-partitioned: each tenant receives a weighted
//     share of the NPU thread pool (largest-remainder rounding, at least one
//     thread per active tenant), modelling island assignment on a real NIC.
//   - Accelerators, parser/egress engines, hubs and memory caches are
//     SHARED: requests from all tenants book the same per-server free times
//     in merged packet-arrival order, so a tenant's wait can be caused by
//     another tenant's in-flight request. Whenever that happens — the
//     earliest-free server was last held by a different tenant — the wait is
//     accounted in the requesting tenant's Result.Contention.
//
// Determinism follows the sharded engine's contract: the merged event
// sequence (all tenants' packets ordered by arrival time, ties broken by
// tenant then packet index) is decomposed into fixed windows independent of
// the worker count; every window runs on fresh per-tenant Sims with
// splitmix64-derived streams (window w, tenant t), stepped by ONE goroutine
// in merged order; per-tenant Results merge window-by-window exactly like
// shards. Same seed ⇒ reflect.DeepEqual per-tenant Results across any
// worker count.
//
// A run with a single active tenant never builds shared state (coloc stays
// nil, the tenant keeps the full thread pool and a zero address base), so it
// is DeepEqual to RunShardedContext of that tenant's trace after a stable
// sort by arrival time — the order mergeArrivals steps it in, where the solo
// engine steps in index order; on a trace already in arrival order the two
// are the same run. TestColocSingleTenantMatchesSharded pins both cases.

// Tenant is one co-resident NF: its compiled program, placement, preloads,
// the traffic it receives, and its weighted share of the general cores.
// Weight <= 0 deactivates the tenant: it is simulated as absent and its
// Result comes back empty.
type Tenant struct {
	Prog    *cir.Program
	Place   Placement
	Preload map[string]int
	Weight  float64
	Trace   *workload.Trace
}

// ColocConfig configures one multi-tenant simulation. Seed/StateSeed/Faults
// follow Config's semantics; fault and runtime RNG streams are additionally
// decorrelated per tenant, while state-table contents share one stream so a
// tenant's tables don't depend on who it is co-located with.
type ColocConfig struct {
	NIC       *lnic.LNIC
	Tenants   []Tenant
	Seed      int64
	StateSeed int64
	Faults    *Faults
	Timeline  bool
}

// colocEvent is one packet of the merged arrival sequence.
type colocEvent struct {
	tenant int // index into ColocConfig.Tenants
	idx    int // index into that tenant's Trace.Packets
}

// mergeArrivals merges the active tenants' packets into one deterministic
// arrival order: by timestamp, ties broken by tenant then packet index. Each
// tenant's packets are first put in arrival order — a generated or
// well-formed capture already is, and keeps its index order; any other gets
// a stable sort of its indices, so equal timestamps stay in index order —
// and the per-tenant streams are then merged k ways, the lowest tenant
// winning a timestamp tie. The result is sized once: n packets over k
// tenants cost O(n·k), with no comparison sort over the whole sequence.
func mergeArrivals(tenants []Tenant, active []int) []colocEvent {
	type stream struct {
		tenant int
		pkts   []workload.TracePacket
		order  []int // pkts' indices in arrival order; nil when already sorted
		pos    int   // next position in arrival order
		idx    int   // packet index at pos
		ns     float64
	}
	streams := make([]stream, 0, len(active))
	n := 0
	for _, t := range active {
		pkts := tenants[t].Trace.Packets
		if len(pkts) == 0 {
			continue
		}
		n += len(pkts)
		st := stream{tenant: t, pkts: pkts}
		if !slices.IsSortedFunc(pkts, cmpArrival) {
			st.order = make([]int, len(pkts))
			for i := range st.order {
				st.order[i] = i
			}
			slices.SortStableFunc(st.order, func(a, b int) int { return cmpArrival(pkts[a], pkts[b]) })
			st.idx = st.order[0]
		}
		st.ns = pkts[st.idx].ArrivalNs
		streams = append(streams, st)
	}
	events := make([]colocEvent, 0, n)
	for len(streams) > 0 {
		// Streams stay in tenant order, so a strict < leaves a timestamp
		// tie with the lowest tenant.
		best := 0
		for k := 1; k < len(streams); k++ {
			if streams[k].ns < streams[best].ns {
				best = k
			}
		}
		st := &streams[best]
		events = append(events, colocEvent{tenant: st.tenant, idx: st.idx})
		st.pos++
		switch {
		case st.pos == len(st.pkts):
			streams = slices.Delete(streams, best, best+1)
			continue
		case st.order != nil:
			st.idx = st.order[st.pos]
		default:
			st.idx = st.pos
		}
		st.ns = st.pkts[st.idx].ArrivalNs
	}
	return events
}

// cmpArrival orders trace packets by arrival time.
func cmpArrival(a, b workload.TracePacket) int { return cmp.Compare(a.ArrivalNs, b.ArrivalNs) }

// colocShared is the arbitration state the co-located Sims of one window
// share: last-owner tags per hub/unit server (for contention attribution)
// and a resource-name cache. It is touched only by the window's single
// stepping goroutine.
type colocShared struct {
	hubOwner  [][]int       // [hub][server] → last tenant, -1 when never used
	unitOwner map[int][]int // unit ID → per-server last tenant
	resNames  map[int]string
}

// resName names a shared unit for contention accounting: accelerators by
// class, fixed-function engines by unit name.
func (c *colocShared) resName(nic *lnic.LNIC, unit int) string {
	if n, ok := c.resNames[unit]; ok {
		return n
	}
	u := &nic.Units[unit]
	n := "engine:" + u.Name
	if u.AccelClass != "" {
		n = "accel:" + u.AccelClass
	}
	c.resNames[unit] = n
	return n
}

// tenantSeed decorrelates tenant t's stream from the window seed. Tenant 0
// keeps the seed unchanged so a single-tenant co-located run reproduces the
// solo sharded engine bit for bit.
func tenantSeed(seed int64, t int) int64 {
	if t == 0 {
		return seed
	}
	return int64(mix64(uint64(seed) ^ 0xC2B2AE3D27D4EB4F*uint64(t)))
}

// tenantAddrBase gives each tenant a disjoint simulated-address window (1 TiB
// apart) so co-resident NFs' state never aliases onto identical cache lines.
func tenantAddrBase(t int) uint64 { return uint64(t) << 40 }

// colocTenantConfig builds the simulator Config for tenant t in window w.
func colocTenantConfig(cfg ColocConfig, w, t int) Config {
	ten := cfg.Tenants[t]
	base := Config{
		NIC: cfg.NIC, Prog: ten.Prog, Place: ten.Place, Preload: ten.Preload,
		Seed: cfg.Seed, StateSeed: cfg.StateSeed,
		Faults: cfg.Faults, Timeline: cfg.Timeline,
		addrBase: tenantAddrBase(t),
	}
	sc := shardConfig(base, w)
	if t != 0 {
		sc.Seed = tenantSeed(sc.Seed, t)
		if sc.Faults != nil {
			// shardConfig already cloned Faults; decorrelate its stream too.
			sc.Faults.Seed = tenantSeed(sc.Faults.Seed, t)
		}
	}
	return sc
}

// threadShares splits total NPU threads across the active tenants
// proportionally to weight: every active tenant gets one thread up front and
// the remainder is apportioned by largest fractional part (ties toward the
// lower tenant index). The shares always sum to total.
func threadShares(total int, tenants []Tenant, active []int) ([]int, error) {
	if len(active) > total {
		return nil, fmt.Errorf("nicsim: %d co-located tenants exceed %d NPU threads", len(active), total)
	}
	shares := make([]int, len(tenants))
	wsum := 0.0
	for _, t := range active {
		wsum += tenants[t].Weight
	}
	spare := total - len(active)
	type frac struct {
		t int
		f float64
	}
	var fracs []frac
	used := 0
	for _, t := range active {
		q := float64(spare) * tenants[t].Weight / wsum
		fl := int(math.Floor(q))
		shares[t] = 1 + fl
		used += fl
		fracs = append(fracs, frac{t, q - math.Floor(q)})
	}
	sort.Slice(fracs, func(i, j int) bool {
		if fracs[i].f != fracs[j].f {
			return fracs[i].f > fracs[j].f
		}
		return fracs[i].t < fracs[j].t
	})
	for k := 0; used < spare && k < len(fracs); k++ {
		shares[fracs[k].t]++
		used++
	}
	return shares, nil
}

// shareIslands rewires the active tenants' fresh Sims into one NIC: hubs,
// accelerator/engine servers, memory caches and the flow cache all point at
// the lead tenant's instances (flow-cache entries are keyed by tenant, so
// tenants share its capacity, never its entries), while each tenant's thread
// pool shrinks to its weighted share. Called only with two or more active
// tenants.
func shareIslands(sims []*Sim, active []int, shares []int) {
	lead := sims[active[0]]
	sh := &colocShared{
		hubOwner:  make([][]int, len(lead.nic.Hubs)),
		unitOwner: map[int][]int{},
		resNames:  map[int]string{},
	}
	for h := range sh.hubOwner {
		own := make([]int, lnic.HubServers)
		for i := range own {
			own[i] = -1
		}
		sh.hubOwner[h] = own
	}
	for _, t := range active {
		s := sims[t]
		s.tenant = t
		s.coloc = sh
		s.threadFree = make([]float64, shares[t])
		s.threads = newThreadHeap(s.threadFree)
		if t != active[0] {
			s.hubFree = lead.hubFree
			s.unitFree = lead.unitFree
			s.caches = lead.caches
			s.fc = lead.fc
		}
	}
}

// emptyResult is the Result of a tenant that was never simulated (zero
// weight, or an empty merged sequence before its first packet).
func emptyResult(name string) *Result {
	return &Result{NFName: name, CacheHitRate: map[string]float64{}, FlowCacheHitRate: math.NaN()}
}

// captureCounters extracts the raw cache counters the shard merge needs from
// a finished Sim. Co-located tenants share one set of caches, so each
// tenant's shardRun reports the shared (whole-NIC) counters for its window.
func captureCounters(sim *Sim, sr *shardRun) {
	sr.fcPresent = sim.fc != nil
	sr.cacheHits = make(map[string]uint64, len(sim.caches))
	sr.cacheTotal = make(map[string]uint64, len(sim.caches))
	for id, c := range sim.caches {
		if c == nil {
			continue
		}
		name := sim.nic.Mems[id].Name
		sr.cacheHits[name] = c.hits
		sr.cacheTotal[name] = c.hits + c.misses
	}
	if sim.fc != nil {
		sr.fcHits, sr.fcTotal = sim.fc.hits, sim.fc.hits+sim.fc.misses
	}
}

// runColocWindow simulates one window of the merged event sequence
// (events, whose first entry has global index start) for window seed index
// w, and returns one shardRun per tenant (zero-valued for inactive slots).
// Events run on a single goroutine in merged order — the Sims share
// mutable arbitration state by design. A budget/cancel trip seals every
// active tenant with the same typed error, each carrying that tenant's own
// partial Result.
func runColocWindow(ctx context.Context, cfg ColocConfig, active []int, shares []int, events []colocEvent, start, w int, pools []*simPool) []shardRun {
	sruns := make([]shardRun, len(cfg.Tenants))
	fail := func(err error) []shardRun {
		for _, t := range active {
			sruns[t] = shardRun{err: err}
		}
		return sruns
	}
	sims := make([]*Sim, len(cfg.Tenants))
	for _, t := range active {
		// One pool per tenant: a tenant's windows share program, placement
		// and address base, which is exactly the pool's reset contract.
		var pool *simPool
		if pools != nil {
			pool = pools[t]
		}
		sim, err := pool.get(ctx, colocTenantConfig(cfg, w, t))
		if err != nil {
			return fail(err)
		}
		sims[t] = sim
	}
	if len(active) > 1 {
		shareIslands(sims, active, shares)
	}
	obs.From(ctx).Counter("clara_sim_shards_total").Add(1)

	counts := make([]int, len(cfg.Tenants))
	for _, ev := range events {
		counts[ev.tenant]++
	}
	states := make([]*runState, len(cfg.Tenants))
	for _, t := range active {
		states[t] = sims[t].newRunState(ctx, cfg.Tenants[t].Trace, counts[t])
	}
	var stepErr error
	erred := -1
	for k, ev := range events {
		if err := states[ev.tenant].step(ev.idx, start+k); err != nil {
			stepErr, erred = err, ev.tenant
			break
		}
	}
	for _, t := range active {
		var sr shardRun
		switch {
		case stepErr == nil:
			sr.res = states[t].finish()
		case t == erred:
			sr.err = stepErr
		default:
			// The run stopped mid-window for every tenant; seal the others
			// with the same typed error around their own partial prefix.
			sr.err = rewrapPartial(stepErr, states[t].finish())
		}
		captureCounters(sims[t], &sr)
		sruns[t] = sr
	}
	if pools != nil {
		for _, t := range active {
			pools[t].put(sims[t])
		}
	}
	return sruns
}

// RunColocatedContext simulates all tenants concurrently on cfg.NIC and
// returns one Result per tenant, index-aligned with cfg.Tenants. Weight<=0
// tenants come back with an empty Result. Budget and cancellation semantics
// match RunShardedContext, with the SimEvents cap applying to the merged
// event sequence; a typed budget/cancel error carries []*Result (every
// tenant's partial, same alignment) as its Partial. By default the whole
// merged event sequence is one window.
func RunColocatedContext(ctx context.Context, cfg ColocConfig, opts ShardOpts) ([]*Result, error) {
	if cfg.NIC == nil {
		return nil, fmt.Errorf("nicsim: co-location needs a NIC")
	}
	if len(cfg.Tenants) == 0 {
		return nil, fmt.Errorf("nicsim: co-location needs at least one tenant")
	}
	if err := cfg.NIC.Validate(); err != nil {
		return nil, err
	}
	var active []int
	for t := range cfg.Tenants {
		ten := &cfg.Tenants[t]
		if ten.Weight <= 0 {
			continue
		}
		if ten.Prog == nil {
			return nil, fmt.Errorf("nicsim: tenant %d has no program", t)
		}
		if ten.Trace == nil {
			return nil, fmt.Errorf("nicsim: tenant %d (%s) has no trace", t, ten.Prog.Name)
		}
		active = append(active, t)
	}
	shares, err := threadShares(totalNPUThreads(cfg.NIC), cfg.Tenants, active)
	if err != nil {
		return nil, err
	}

	// The decomposition into windows depends only on the merged sequence
	// and the window size — never on the worker count.
	events := mergeArrivals(cfg.Tenants, active)

	n := len(events)
	window := opts.window(n)
	windows := (n + window - 1) / window
	if windows == 0 {
		windows = 1
	}
	// Mirror RunShardedContext: windows wholly past the SimEvents cap are
	// never dispatched — the boundary window raises the trip.
	dispatch := windows
	if lim := budget.From(ctx); lim.SimEvents > 0 && lim.SimEvents < int64(n) {
		dispatch = int(lim.SimEvents/int64(window)) + 1
		if dispatch > windows {
			dispatch = windows
		}
	}
	pools := make([]*simPool, len(cfg.Tenants))
	for _, t := range active {
		pools[t] = &simPool{}
	}
	runs, _ := runner.Map(ctx, opts.Workers, dispatch,
		func(cctx context.Context, w int) ([]shardRun, error) {
			lo := w * window
			hi := lo + window
			if hi > n {
				hi = n
			}
			return runColocWindow(cctx, cfg, active, shares, events[lo:hi], lo, w, pools), nil
		})

	// Merge each tenant's windows exactly like shards; the first erroring
	// tenant (lowest index) decides the overall outcome.
	results := make([]*Result, len(cfg.Tenants))
	var firstErr error
	for t := range cfg.Tenants {
		ten := &cfg.Tenants[t]
		if ten.Weight <= 0 {
			name := ""
			if ten.Prog != nil {
				name = ten.Prog.Name
			}
			results[t] = emptyResult(name)
			continue
		}
		truns := make([]shardRun, len(runs))
		for w := range runs {
			if runs[w] == nil {
				// The runner skipped the window (parent cancellation);
				// leave the zero shardRun for mergeShards to classify.
				continue
			}
			truns[w] = runs[w][t]
		}
		mcfg := Config{NIC: cfg.NIC, Prog: ten.Prog, Timeline: cfg.Timeline}
		res, err := mergeShards(ctx, mcfg, truns)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			results[t] = partialResult(err)
		} else {
			results[t] = res
		}
	}
	if firstErr != nil {
		return nil, rewrapPartial(firstErr, results)
	}
	return results, nil
}

// totalNPUThreads counts the thread pool the classic engine builds: all
// NPU threads, falling back to MAU stages on core-less ASICs.
func totalNPUThreads(nic *lnic.LNIC) int {
	gp := nic.UnitsOfKind(lnic.UnitNPU)
	if len(gp) == 0 {
		gp = nic.UnitsOfKind(lnic.UnitMAU)
	}
	total := 0
	for _, id := range gp {
		total += nic.Units[id].Threads
	}
	return total
}

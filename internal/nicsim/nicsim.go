// Package nicsim is a cycle-level SmartNIC simulator. It plays the role the
// physical Netronome Agilio CX played in the paper's validation (§4): the
// "Actual" side of every Predicted-vs-Actual comparison. It executes a
// lowered NF (CIR) against real packet bytes and real state — flow tables,
// LPM rules, count-min sketches, Aho-Corasick DPI automata — charging cycle
// costs drawn from the same databook parameters the LNIC profile publishes,
// but with the microarchitectural detail Clara's analytic predictor
// deliberately approximates: a concrete set-associative cache, FIFO
// accelerator queues with head-of-line blocking, per-thread dispatch, and
// packet-buffer tail spill. The residual between the two is Clara's
// prediction error, arising for the same structural reasons as on hardware.
package nicsim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync"

	"clara/internal/budget"
	"clara/internal/cir"
	"clara/internal/lnic"
	"clara/internal/mapper"
	"clara/internal/obs"
	"clara/internal/packet"
	"clara/internal/workload"
)

// Placement carries the mapping decisions the simulator honors when
// executing an NF — the product of the ILP mapper, or of a hand-written
// porting strategy (the paper's Figure 1 variants are exactly such
// placements).
type Placement struct {
	// StateMem maps each state object to an LNIC memory region ID.
	StateMem map[string]int
	// UseFlowCache marks states whose lookups are fronted by the flow-cache
	// accelerator (per-flow result caching, §2.1's LPM example).
	UseFlowCache map[string]bool
	// ChecksumOnAccel routes checksum_pkt to the checksum accelerator
	// instead of NPU software.
	ChecksumOnAccel bool
	// CryptoOnAccel routes crypto() to the crypto accelerator.
	CryptoOnAccel bool
	// ParseOnEngine performs header parsing at the ingress parser engine,
	// making get_hdr a cheap metadata read on the cores.
	ParseOnEngine bool
}

// PlacementOf converts a solved mapping into the placement the simulator
// honors.
func PlacementOf(m *mapper.Mapping) Placement {
	return Placement{
		StateMem:        m.StateMem,
		UseFlowCache:    m.UseFlowCache,
		ChecksumOnAccel: m.ChecksumOnAccel,
		CryptoOnAccel:   m.CryptoOnAccel,
		ParseOnEngine:   m.ParseOnEngine,
	}
}

// DefaultPlacement places every state object in the largest (last-level)
// memory and uses no accelerators — the most naive port.
func DefaultPlacement(nic *lnic.LNIC, prog *cir.Program) Placement {
	last := len(nic.Mems) - 1
	p := Placement{
		StateMem:     map[string]int{},
		UseFlowCache: map[string]bool{},
	}
	for _, s := range prog.State {
		p.StateMem[s.Name] = last
	}
	return p
}

// Config configures one simulation.
type Config struct {
	NIC   *lnic.LNIC
	Prog  *cir.Program
	Place Placement
	// Preload installs entries into named states before the run (LPM rule
	// tables). Values are entry counts.
	Preload map[string]int
	Seed    int64
	// StateSeed, when non-zero, seeds state-object initialization (LPM rule
	// synthesis, array preloads) independently of Seed, which then drives
	// only the runtime RNG streams. Zero derives state from Seed. The
	// sharded engine sets it so every shard sees identical table contents
	// while its timing/fault streams stay shard-specific.
	StateSeed int64
	// Faults, when non-nil, injects hardware faults during the run (see the
	// Faults type); validated against the NIC at New.
	Faults *Faults
	// Timeline enables the per-packet hop tracer: every hub, dispatch, NPU,
	// accelerator, memory and egress visit is recorded with cycle timestamps
	// and queue depths into Result.Timeline. Off by default; the disabled
	// path costs one nil check per hop.
	Timeline bool

	// addrBase offsets every simulated state address. The co-location engine
	// gives each tenant a disjoint address window so co-resident NFs don't
	// alias onto the same cache lines while set-conflict behaviour within a
	// tenant is preserved. Zero (solo runs) changes nothing.
	addrBase uint64
}

// Breakdown splits a packet's cycles by where they were spent.
type Breakdown struct {
	Compute float64 // instruction execution on cores
	Mem     float64 // state and packet memory access
	Accel   float64 // accelerator service time
	Queue   float64 // waiting: thread dispatch, accelerator and hub queues
	Fixed   float64 // ingress/parse/egress engine service
}

// PacketResult records one packet's simulated journey.
type PacketResult struct {
	ArrivalCycles float64
	DoneCycles    float64
	Latency       float64 // cycles
	Verdict       uint64
	Class         string // "tcp-syn", "tcp", "udp", "icmp", "other"
	Breakdown     Breakdown
}

// Result is a completed simulation.
type Result struct {
	NFName  string
	Packets []PacketResult
	// CacheHitRate per cached region name.
	CacheHitRate map[string]float64
	// FlowCacheHitRate is hits/lookups at the flow-cache accelerator (NaN
	// if unused).
	FlowCacheHitRate float64
	Errors           int // packets whose execution faulted (counted, skipped)
	// Faults accounts injected hardware faults (zero when Config.Faults is
	// nil or nothing fired).
	Faults FaultReport
	// Timeline is the per-packet hop trace (nil unless Config.Timeline).
	Timeline *Timeline
	// Contention accounts cycles this NF's packets spent stalled behind a
	// co-located tenant on shared resources. Nil for solo runs (and for
	// co-located runs with fewer than two active tenants), so solo Results
	// are byte-identical to pre-co-location ones.
	Contention *ContentionReport

	// latOnce/lat cache the sorted finite latency slice behind Percentile
	// and MeanLatency, so repeated quantile queries (a serving workload)
	// sort once per Result instead of once per call. The fields stay zero
	// until a statistics method runs; comparing fresh Results with
	// reflect.DeepEqual (the determinism suite does) is unaffected as long
	// as both sides are compared before querying statistics.
	latOnce sync.Once
	lat     []float64
}

// latencies returns the Result's latencies with NaNs dropped, sorted
// ascending, computed once and shared by every statistics method. The
// returned slice is read-only.
func (r *Result) latencies() []float64 {
	r.latOnce.Do(func() {
		lat := make([]float64, 0, len(r.Packets))
		for i := range r.Packets {
			if v := r.Packets[i].Latency; !math.IsNaN(v) {
				lat = append(lat, v)
			}
		}
		sort.Float64s(lat)
		r.lat = lat
	})
	return r.lat
}

// MeanLatency returns the average latency in cycles over the packets with
// a well-defined latency (NaN samples — a faulted measurement, never a
// healthy run — are excluded rather than propagated). An empty Result
// yields 0.
func (r *Result) MeanLatency() float64 {
	lat := r.latencies()
	if len(lat) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range lat {
		sum += v
	}
	return sum / float64(len(lat))
}

// Percentile returns the p-th latency percentile in cycles. p is clamped
// to [0, 100] (Percentile(-5) == Percentile(0) == min, Percentile(250) ==
// Percentile(100) == max) and ranks between samples interpolate linearly,
// so p50 of {a, b} is their midpoint rather than a. NaN latency samples
// are excluded; an empty Result yields 0 and a NaN p yields NaN. The sort
// behind the ranking runs once per Result and is cached.
func (r *Result) Percentile(p float64) float64 {
	lat := r.latencies()
	if len(lat) == 0 {
		return 0
	}
	if math.IsNaN(p) {
		return math.NaN()
	}
	if p < 0 {
		p = 0
	} else if p > 100 {
		p = 100
	}
	rank := p / 100 * float64(len(lat)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return lat[lo]
	}
	frac := rank - float64(lo)
	return lat[lo] + frac*(lat[hi]-lat[lo])
}

// MeanLatencyByClass returns per-packet-class mean latencies.
func (r *Result) MeanLatencyByClass() map[string]float64 {
	sums := map[string]float64{}
	counts := map[string]int{}
	for i := range r.Packets {
		sums[r.Packets[i].Class] += r.Packets[i].Latency
		counts[r.Packets[i].Class]++
	}
	out := map[string]float64{}
	for c, s := range sums {
		out[c] = s / float64(counts[c])
	}
	return out
}

// MeanBreakdown averages the per-packet breakdowns.
func (r *Result) MeanBreakdown() Breakdown {
	var b Breakdown
	n := float64(len(r.Packets))
	if n == 0 {
		return b
	}
	for i := range r.Packets {
		p := &r.Packets[i].Breakdown
		b.Compute += p.Compute
		b.Mem += p.Mem
		b.Accel += p.Accel
		b.Queue += p.Queue
		b.Fixed += p.Fixed
	}
	b.Compute /= n
	b.Mem /= n
	b.Accel /= n
	b.Queue /= n
	b.Fixed /= n
	return b
}

// Sim is a configured simulator. It is not safe for concurrent use.
type Sim struct {
	cfg  Config
	nic  *lnic.LNIC
	prog *cir.Program

	// compiled is the CIR engine built once at New and reused for every
	// packet.
	compiled *cir.Compiled
	// costByOp is the representative core's per-opcode instruction price
	// (lnic.InstrPrices: class lookup, FPU emulation and local-memory
	// override folded in), which the compiled engine's meter books from.
	costByOp cir.Prices
	// vcCycles does the same for vcalls by lnic.VCallPrice, cold then warm,
	// under this Sim's placement; byte-dependent charges (software checksum
	// and crypto, the LPM scan) are priced through the rule per call.
	vcCycles [2][cir.NumVCalls]float64
	// memCost does the same for memory: one access from the representative
	// core into each region, indexed by region ID (see memPrice). lines
	// holds each region's line geometry and pktSpanMod the modulus of the
	// per-packet base rotation in the packet region. All three depend only
	// on the NIC and npuUnit, so reset and the co-location rewiring leave
	// them valid.
	memCost    []memPrice
	lines      []lineGeom
	pktSpanMod uint64

	// slots binds each state object, indexed like prog.State and so by
	// Instr.Slot; latch holds, per slot, the map entry the in-flight packet
	// last touched (cleared per packet).
	slots []stateSlot
	latch []*mapEntry

	// caches is indexed by memory region ID (Validate pins ID == index);
	// nil entries are uncached regions. ownCaches always points at this
	// Sim's own instances: shareIslands aims caches at the lead tenant's,
	// and reset restores the original aliasing from ownCaches (likewise
	// ownFC for fc and nThreads for the full thread-pool size).
	caches    []*cache
	ownCaches []*cache
	ownFC     *flowCache
	nThreads  int

	threadFree []float64
	// threads keeps the earliest-free NPU thread at its root (running-minimum
	// over its own packed copy of the free times; bookThread writes both it
	// and threadFree), so per-packet dispatch is O(log threads) instead of a
	// linear scan.
	threads threadHeap
	// unitFree holds per-server next-free times for accelerators, parser
	// and egress engines (a unit with N threads is N parallel servers),
	// indexed by unit ID; inner slices are built lazily on first visit.
	unitFree [][]float64
	hubFree  [][]float64

	// fcUnit, cksumUnit and cryptoUnit are the first flow-cache, checksum
	// and crypto accelerators' unit IDs, -1 when the NIC has none; vcalls
	// read them instead of scanning the NIC's units per packet.
	fcUnit, cksumUnit, cryptoUnit int

	fc *flowCache

	npu      *lnic.ComputeUnit // representative general core for pricing
	npuUnit  int
	rngState uint64
	// parserUnits/egressUnits cache UnitsOfKind results (which allocate a
	// fresh slice per call) for the two lookups the packet loop needs.
	parserUnits []int
	egressUnits []int

	faults     *Faults
	frngState  uint64 // dedicated fault RNG (see faults.go)
	report     FaultReport
	pktFaulted bool    // the in-flight packet saw an injected fault
	runDPI     int64   // DPI byte budget for the current run (0 = whole payload)
	svcSum     float64 // total NPU service cycles of completed packets
	svcCount   int     // completed packets behind svcSum

	tl        *Timeline // hop tracer; nil when Config.Timeline is false
	curPkt    int       // packet index the tracer attributes hops to
	memCycles []float64 // per-region cycle totals of the in-flight packet (tracer only)

	// Co-location: tenant is this Sim's index among the co-resident NFs and
	// coloc the shared arbitration state (nil for solo runs — the hot path
	// pays one nil check, like the tracer's). The cont* accumulators record
	// cross-tenant waits this tenant's packets incurred on shared servers.
	tenant     int
	coloc      *colocShared
	contStall  float64
	contWaits  map[string]uint64
	contCycles map[string]float64
}

// ContentionReport accounts a co-located NF's stalls behind other tenants.
// All fields are raw sums (never rates), so shard merging adds them.
type ContentionReport struct {
	// StallCycles is the total cycles spent waiting on a shared server whose
	// previous occupant was another tenant.
	StallCycles float64
	// Waits counts those cross-tenant waits per resource name
	// ("hub:<name>", "accel:<class>", "engine:<name>"); WaitCycles holds the
	// corresponding cycle sums. Both may be nil when nothing contended.
	Waits      map[string]uint64
	WaitCycles map[string]float64
}

// NewContext validates the configuration and builds a simulator with
// preloaded state under ctx's budget: the declared capacity of every
// simulated state object is checked against the context's flow-entry limit
// (a safe default applies with no budget), so a hostile `array<8>[1e9]`
// declaration is rejected here rather than allocating gigabytes.
//
// NewContext builds what depends on the config alone — the compiled engine,
// price tables, caches, state tables and LPM/DPI contents — and then hands
// the per-run fields to initRun, the initialiser Sim.reset shares.
func NewContext(ctx context.Context, cfg Config) (*Sim, error) {
	if cfg.NIC == nil || cfg.Prog == nil {
		return nil, fmt.Errorf("nicsim: nil NIC or program")
	}
	if err := cfg.NIC.Validate(); err != nil {
		return nil, err
	}
	if err := cir.Verify(cfg.Prog); err != nil {
		return nil, err
	}
	if cfg.Faults != nil {
		if err := cfg.Faults.Validate(cfg.NIC); err != nil {
			return nil, err
		}
	}
	lim := budget.From(ctx)
	s := &Sim{
		nic:    cfg.NIC,
		prog:   cfg.Prog,
		slots:  make([]stateSlot, len(cfg.Prog.State)),
		latch:  make([]*mapEntry, len(cfg.Prog.State)),
		caches: make([]*cache, len(cfg.NIC.Mems)),
	}
	// One representative general core prices instruction execution; MAU
	// stages stand in on core-less ASICs.
	gp := s.nic.UnitsOfKind(lnic.UnitNPU)
	if len(gp) == 0 {
		gp = s.nic.UnitsOfKind(lnic.UnitMAU)
	}
	if len(gp) == 0 {
		return nil, fmt.Errorf("nicsim: LNIC %s has no programmable units", s.nic.Name)
	}
	s.npuUnit = gp[0]
	s.npu = &s.nic.Units[s.npuUnit]
	s.parserUnits = s.nic.UnitsOfKind(lnic.UnitParser)
	s.egressUnits = s.nic.UnitsOfKind(lnic.UnitEgress)

	// Verify passed above, so a compile failure here is a real
	// inconsistency, not a user error.
	compiled, err := cir.Compile(s.prog)
	if err != nil {
		return nil, err
	}
	s.compiled = compiled

	s.costByOp = s.nic.InstrPrices(s.npu)
	for w := range s.vcCycles {
		for vc := range s.vcCycles[w] {
			in := lnic.VCallIn{Warm: w == 1, ParseOnEngine: cfg.Place.ParseOnEngine}
			s.vcCycles[w][vc] = s.nic.VCallPrice(s.npu, cir.VCall(vc), in).Compute
		}
	}

	s.memCost = make([]memPrice, len(s.nic.Mems))
	s.lines = make([]lineGeom, len(s.nic.Mems))
	for r := range s.nic.Mems {
		s.memCost[r] = priceRegion(s.nic, s.npuUnit, r)
		s.lines[r] = newLineGeom(s.nic.Mems[r].LineSize())
	}
	span := uint64(s.nic.Mems[s.nic.PktMem].Bytes)
	if span < 4096 {
		span = 4096
	}
	s.pktSpanMod = span - 2048

	// Thread pool across all general cores.
	total := 0
	for _, id := range gp {
		total += s.nic.Units[id].Threads
	}
	s.nThreads = total

	for i := range s.nic.Mems {
		m := &s.nic.Mems[i]
		if m.CacheBytes > 0 {
			s.caches[m.ID] = newCache(m.CacheBytes, m.LineSize())
		}
	}
	s.ownCaches = s.caches
	s.cksumUnit, s.cryptoUnit = firstAccel(s.nic, "checksum"), firstAccel(s.nic, "crypto")
	if s.fcUnit = firstAccel(s.nic, "flowcache"); s.fcUnit >= 0 {
		s.fc = newFlowCache(s.nic.Units[s.fcUnit].TableEntries)
	}
	s.ownFC = s.fc

	// Place state: allocate simulated addresses region by region. Contents
	// of synthesized state (LPM rules here, array preloads in initRun) derive
	// from the state seed (see Config.objSeed).
	alloc := map[int]uint64{}
	nextAddr := func(region int, bytes int) uint64 {
		base := alloc[region]
		alloc[region] = base + uint64(bytes+63)&^63
		return cfg.addrBase + base
	}
	for i, obj := range s.prog.State {
		if int64(obj.Capacity) > lim.FlowEntryLimit() {
			return nil, &budget.ExceededError{
				Resource: "flow-entries", Limit: lim.FlowEntryLimit(),
				Stage: "simulate", NF: s.prog.Name,
			}
		}
		region, ok := cfg.Place.StateMem[obj.Name]
		if !ok {
			region = len(s.nic.Mems) - 1
		}
		if region < 0 || region >= len(s.nic.Mems) {
			return nil, fmt.Errorf("nicsim: state %s placed in unknown region %d", obj.Name, region)
		}
		sl := &s.slots[i]
		sl.fc = cfg.Place.UseFlowCache[obj.Name]
		switch obj.Kind {
		case cir.StateMap:
			sl.m = newMapState(obj, region, nextAddr(region, obj.Bytes()))
		case cir.StateLPM:
			entries := cfg.Preload[obj.Name]
			if entries <= 0 {
				entries = obj.Capacity
			}
			sl.l = newLPMState(obj, region, nextAddr(region, obj.Bytes()), entries, cfg.objSeed(obj.Name))
		case cir.StateSketch:
			sl.sk = newSketchState(obj, region, nextAddr(region, obj.Bytes()))
		case cir.StateArray:
			sl.a = newArrayState(obj, region, nextAddr(region, obj.Bytes()))
		case cir.StatePattern:
			ac := buildAC(s.prog.Patterns[obj.Name])
			sl.p = &patternState{
				obj: obj, region: region,
				base: nextAddr(region, ac.FootprintBytes()),
				ac:   ac,
			}
		}
	}
	s.initRun(cfg)
	return s, nil
}

// initRun sets every per-run field from cfg: the runtime and fault RNG
// streams, the fault report and timeline, the thread, hub and unit free
// times, solo (co-location undone) resource wiring and the array preloads.
// NewContext calls it on a fresh build and Sim.reset on a recycled Sim
// whose tables and caches it has already cleared, so the two cannot drift.
func (s *Sim) initRun(cfg Config) {
	s.cfg = cfg
	s.faults = cfg.Faults
	s.rngState = uint64(cfg.Seed)*2862933555777941757 + 3037000493
	if s.rngState == 0 {
		// The affine seed map has exactly one pre-image of 0; without this
		// guard that seed would freeze the xorshift at 0 forever. Mirrors the
		// fault RNG's guard below so derived per-shard streams inherit both.
		s.rngState = 0x2545F4914F6CDD1D
	}
	s.frngState = 0
	if s.faults != nil {
		seed := s.faults.Seed
		if seed == 0 {
			seed = cfg.Seed
		}
		s.frngState = uint64(seed)*0x9E3779B97F4A7C15 + 0x2545F4914F6CDD1D
		if s.frngState == 0 {
			s.frngState = 0x9E3779B97F4A7C15
		}
	}
	s.report = FaultReport{}
	s.pktFaulted = false
	s.runDPI = 0
	s.svcSum, s.svcCount = 0, 0
	s.tl, s.memCycles, s.curPkt = nil, nil, 0
	if cfg.Timeline {
		s.tl = &Timeline{NF: cfg.Prog.Name, NIC: cfg.NIC.Name, ClockGHz: cfg.NIC.ClockGHz}
		s.memCycles = make([]float64, len(cfg.NIC.Mems))
	}

	// Solo wiring: this Sim's own caches and flow cache, no arbitration
	// state (shareIslands rewires a co-located run after this).
	s.tenant, s.coloc = 0, nil
	s.contStall, s.contWaits, s.contCycles = 0, nil, nil
	s.caches, s.fc = s.ownCaches, s.ownFC

	// Server free times: the full thread pool (shareIslands may have shrunk
	// threadFree to a tenant share, so rebuild when the length drifted), and
	// empty hub/unit tables (inner slices are built lazily on first visit).
	if len(s.threadFree) == s.nThreads {
		clear(s.threadFree)
	} else {
		s.threadFree = make([]float64, s.nThreads)
	}
	s.threads.init(s.threadFree)
	s.hubFree = make([][]float64, len(s.nic.Hubs))
	s.unitFree = make([][]float64, len(s.nic.Units))

	for i := range s.slots {
		if a := s.slots[i].a; a != nil {
			name := s.prog.State[i].Name
			if n := cfg.Preload[name]; n > 0 {
				a.preload(n, cfg.objSeed(name))
			}
		}
	}
}

// RunContext replays the trace through the NF and returns per-packet
// results, under a cancellable, budgeted context. The per-packet
// CIR step cap and the total packet (event) cap come from the
// budget.Limits on ctx; a tripped budget returns a *budget.ExceededError and
// a cancellation a *budget.CanceledError, both carrying the *Result covering
// the packets that did complete — enough to compare a prediction against a
// truncated run.
func (s *Sim) RunContext(ctx context.Context, tr *workload.Trace) (*Result, error) {
	return s.runRange(ctx, tr, 0, 0, len(tr.Packets))
}

// runRange is the simulation loop over tr.Packets[lo:hi], attributing packet
// tr.Packets[i] the global trace index base+i — the index the budget's
// SimEvents cap, the timeline's Packet field and the packet-memory rotation
// all see. RunContext is runRange over the whole trace with base 0; the
// sharded engine runs one window per call, either as a sub-range of a shared
// in-memory trace (base 0) or as a streamed window trace whose own indices
// start at 0 (base = the window's global start). The co-location engine
// drives the same runState a packet at a time, interleaving the steps of
// several tenants' Sims in merged arrival order.
func (s *Sim) runRange(ctx context.Context, tr *workload.Trace, base, lo, hi int) (*Result, error) {
	var rs runState
	s.initRunState(&rs, ctx, tr, hi-lo)
	for i := lo; i < hi; i++ {
		if err := rs.step(i, base+i); err != nil {
			return nil, err
		}
	}
	return rs.finish(), nil
}

// runState is the per-run scratch behind the simulation loop: one exec
// serves every packet (reset between packets), the Hooks value — with the
// exec's meter — is built once since its fields are loop-invariant, and
// decoded packets come from the trace's shared cache. Corruption copies
// recycle through corruptPool; the slot is released at the top of the next
// step and in finish, covering every early-return path.
type runState struct {
	s   *Sim
	ctx context.Context
	tr  *workload.Trace
	res *Result

	lim      budget.Limits
	simSteps int
	runSteps int64
	metrics  *obs.Metrics
	usage    *budget.Usage
	clock    float64

	decoded    []packet.Packet
	decodeErr  []bool
	e          *exec
	hooks      cir.Hooks
	corruptBuf *[]byte
}

// newRunState prepares one run of tr through s under ctx's budget; capHint
// sizes the result's packet slice. The co-location engine uses this heap
// form because it holds tenant runStates across many step calls; the solo
// path calls initRunState on a stack value instead (one alloc saved per
// run, which BenchmarkSimRun's allocs/op baseline pins).
func (s *Sim) newRunState(ctx context.Context, tr *workload.Trace, capHint int) *runState {
	rs := new(runState)
	s.initRunState(rs, ctx, tr, capHint)
	return rs
}

// initRunState fills rs in place for one run of tr through s under ctx's
// budget.
func (s *Sim) initRunState(rs *runState, ctx context.Context, tr *workload.Trace, capHint int) {
	lim := budget.From(ctx)
	s.runDPI = lim.DPIBytes
	*rs = runState{
		s: s, ctx: ctx, tr: tr,
		lim:      lim,
		simSteps: int(lim.SimStepLimit()),
		metrics:  obs.From(ctx),
		usage:    budget.UsageFrom(ctx),
		clock:    s.nic.ClockGHz,
		res: &Result{
			NFName:       s.prog.Name,
			Packets:      make([]PacketResult, 0, capHint),
			CacheHitRate: map[string]float64{},
		},
	}
	rs.decoded, rs.decodeErr = tr.Decoded()
	rs.e = newExec(s)
	rs.hooks = cir.Hooks{Meter: &rs.e.meter, MaxSteps: rs.simSteps, Ctx: ctx}
}

func (rs *runState) releaseCorrupt() {
	if rs.corruptBuf != nil {
		corruptPool.Put(rs.corruptBuf)
		rs.corruptBuf = nil
	}
}

// finish seals aggregate rates and the fault report; partial-result errors
// carry the same sealed Result a full run would return.
func (rs *runState) finish() *Result {
	rs.releaseCorrupt()
	s, res := rs.s, rs.res
	for id, c := range s.caches {
		if c != nil {
			res.CacheHitRate[s.nic.Mems[id].Name] = c.HitRate()
		}
	}
	if s.fc != nil {
		res.FlowCacheHitRate = s.fc.HitRate()
	} else {
		res.FlowCacheHitRate = math.NaN()
	}
	if s.coloc != nil {
		res.Contention = &ContentionReport{
			StallCycles: s.contStall,
			Waits:       s.contWaits,
			WaitCycles:  s.contCycles,
		}
	}
	res.Faults = s.report
	res.Timeline = s.tl
	rs.usage.AddSimEvents(int64(len(res.Packets)))
	rs.usage.AddSimSteps(rs.runSteps)
	if rs.metrics != nil {
		rs.metrics.Counter("clara_sim_packets_total").Add(int64(len(res.Packets)))
		rs.metrics.Counter("clara_sim_steps_total").Add(rs.runSteps)
		rs.metrics.Counter("clara_sim_errors_total").Add(int64(res.Errors))
		rs.metrics.Counter("clara_sim_dropped_total").Add(int64(s.report.Dropped))
		rs.metrics.Counter("clara_sim_corrupted_total").Add(int64(s.report.Corrupted))
	}
	return res
}

// step simulates packet rs.tr.Packets[i], attributed the global event index
// g. A typed budget/cancel error carries rs.finish() as its Partial — after
// step returns non-nil the runState is sealed and must not step again.
func (rs *runState) step(i, g int) error {
	s, e, ctx := rs.s, rs.e, rs.ctx
	rs.releaseCorrupt()
	if err := ctx.Err(); err != nil {
		return &budget.CanceledError{
			Stage: "simulate", NF: s.prog.Name, Err: err, Partial: rs.finish(),
		}
	}
	if rs.lim.SimEvents > 0 && int64(g) >= rs.lim.SimEvents {
		return &budget.ExceededError{
			Resource: "sim-events", Limit: rs.lim.SimEvents,
			Stage: "simulate", NF: s.prog.Name, Partial: rs.finish(),
		}
	}
	tp := &rs.tr.Packets[i]
	arrival := tp.ArrivalNs * rs.clock
	s.pktFaulted = false
	s.curPkt = g
	if s.memCycles != nil {
		for r := range s.memCycles {
			s.memCycles[r] = 0
		}
	}

	data := tp.Data
	corrupted := false
	if f := s.faults; f != nil && f.Corrupt > 0 && len(data) > 0 && s.frandFloat() < f.Corrupt {
		// Corrupt a pooled copy: trace packet data — and the decode cache
		// aliasing it — is shared across runs and must stay intact.
		rs.corruptBuf = corruptPool.Get().(*[]byte)
		dup := *rs.corruptBuf
		if cap(dup) < len(data) {
			dup = make([]byte, len(data))
		}
		dup = dup[:len(data)]
		*rs.corruptBuf = dup
		copy(dup, data)
		dup[int(s.frand()%uint64(len(dup)))] ^= byte(s.frand()%255 + 1)
		data = dup
		corrupted = true
		s.report.Corrupted++
		s.pktFaulted = true
	}

	e.reset(data, g)
	decodeFailed := false
	if corrupted {
		// The wire bytes differ from the trace's, so the cached decode
		// does not apply: decode the corrupted copy fresh into exec-owned
		// storage.
		e.pkt = &e.pktCopy
		e.pktOwned = true
		decodeFailed = e.pkt.Decode(data) != nil
	} else {
		e.pkt = &rs.decoded[i]
		decodeFailed = rs.decodeErr[i]
	}
	if decodeFailed {
		// Malformed frames traverse the NIC switch only.
		t, dropped := s.hubVisit(0, arrival, &e.bd)
		if dropped {
			s.report.Dropped++
			return nil
		}
		if s.pktFaulted {
			s.report.FaultedPackets++
		}
		rs.res.Packets = append(rs.res.Packets, PacketResult{
			ArrivalCycles: arrival, DoneCycles: t, Latency: t - arrival,
			Verdict: cir.VerdictPass, Class: "other", Breakdown: e.bd,
		})
		return nil
	}

	t := arrival
	// Ingress: traffic-manager hub, DMA into packet memory, optional
	// parse engine.
	if len(s.nic.Hubs) > 0 {
		var dropped bool
		t, dropped = s.hubVisit(0, t, &e.bd)
		if dropped {
			s.report.Dropped++
			return nil
		}
	}
	dma := float64(len(data)/64+1) * 1.0
	if s.tl != nil {
		s.tl.add(Hop{Packet: g, Stage: "dma", Unit: -1, Start: t, Dur: dma})
	}
	t += dma
	e.bd.Fixed += dma
	if s.cfg.Place.ParseOnEngine && len(s.parserUnits) > 0 {
		t = s.engineVisit(s.parserUnits[0], t, &e.bd)
	}

	// Dispatch to the earliest-free NPU thread (a packet binds to one
	// thread, §3.2). The heap's root is the running minimum of
	// threadFree, with ties broken toward the lowest index exactly as
	// the linear scan it replaced resolved them.
	th := s.threads.min()
	start := t
	if f := s.threadFree[th]; f > start {
		start = f
	}
	// Under a fault-injected queue cap, the dispatch queue in front of
	// the NPU complex is finite: a wait exceeding QueueCap mean service
	// times (≈ QueueCap packets queued, by Little's law) sheds the
	// packet. The mean needs a few completed packets to stabilize.
	if f := s.faults; f != nil && f.QueueCap > 0 && s.svcCount >= 8 {
		if avg := s.svcSum / float64(s.svcCount); start-t > float64(f.QueueCap)*avg {
			s.report.Dropped++
			return nil
		}
	}
	if s.tl != nil {
		s.tl.add(Hop{Packet: g, Stage: "dispatch", Unit: th, Start: start,
			Wait: start - t, Depth: busyAfter(s.threadFree, t)})
	}
	e.bd.Queue += start - t
	e.now = start

	verdict, err := s.compiled.Run(e, &rs.hooks)
	rs.runSteps += e.steps
	if err != nil {
		s.bookThread(th, e.now)
		if errors.Is(err, cir.ErrStepLimit) {
			return &budget.ExceededError{
				Resource: "sim-steps", Limit: int64(rs.simSteps),
				Stage: "simulate", NF: s.prog.Name, Partial: rs.finish(),
			}
		}
		if cerr := ctx.Err(); cerr != nil {
			return &budget.CanceledError{
				Stage: "simulate", NF: s.prog.Name, Err: cerr, Partial: rs.finish(),
			}
		}
		rs.res.Errors++
		return nil
	}
	s.bookThread(th, e.now)
	s.svcSum += e.now - start
	s.svcCount++
	if s.tl != nil {
		s.tl.add(Hop{Packet: g, Stage: "npu", Unit: th, Start: start, Dur: e.now - start})
		// Memory time is interleaved with compute on the core, so the
		// tracer reports it as one aggregate span per region rather than
		// thousands of per-access events.
		for r, cyc := range s.memCycles {
			if cyc > 0 {
				s.tl.add(Hop{Packet: g, Stage: "mem:" + s.nic.Mems[r].Name,
					Unit: -1, Start: start, Dur: cyc})
			}
		}
	}

	done := e.now
	if verdict == cir.VerdictPass && e.emitted {
		// Egress engine + switch hop. Packets reach these at completion
		// times that are out of order across threads, and both stages
		// are far overprovisioned for any workload here, so they add
		// service latency without queueing contention (sequential
		// server bookkeeping at out-of-order visit times would
		// manufacture phantom waits behind long-running packets).
		if eg := s.egressUnits; len(eg) > 0 {
			svc := s.nic.Units[eg[0]].FixedCycles
			if s.tl != nil {
				s.tl.add(Hop{Packet: g, Stage: "egress", Unit: -1, Start: done, Dur: svc})
			}
			done += svc
			e.bd.Fixed += svc
		}
		if len(s.nic.Hubs) > 1 {
			svc := s.nic.Hubs[1].ServiceCycles
			if s.tl != nil {
				s.tl.add(Hop{Packet: g, Stage: "egress-hub", Unit: -1, Start: done, Dur: svc})
			}
			done += svc
			e.bd.Fixed += svc
		}
	}

	if s.pktFaulted {
		s.report.FaultedPackets++
	}
	rs.res.Packets = append(rs.res.Packets, PacketResult{
		ArrivalCycles: arrival, DoneCycles: done, Latency: done - arrival,
		Verdict: verdict, Class: classify(e.pkt), Breakdown: e.bd,
	})
	return nil
}

// firstAccel returns the ID of nic's first accelerator of class, -1 when it
// has none.
func firstAccel(nic *lnic.LNIC, class string) int {
	if ids := nic.Accelerators(class); len(ids) > 0 {
		return ids[0]
	}
	return -1
}

// bookThread advances thread th's next-free time and restores the heap. th
// is always the heap root (dispatch only ever books the earliest-free
// thread), and free times only move forward, so one sift-down suffices. Shed
// packets never book, leaving the heap untouched. The heap keeps its own
// packed copy of the free times; threadFree stays current for busyAfter and
// the timeline.
func (s *Sim) bookThread(th int, free float64) {
	s.threadFree[th] = free
	s.threads.book(free)
}

// corruptPool recycles the wire-byte copies that corruption fault injection
// mutates, so a high corruption rate does not allocate per corrupted packet.
// Entries are stored as *[]byte to keep Put itself allocation-free. Safe
// because nothing downstream retains the corrupted bytes: PacketResult and
// Timeline record only derived values.
var corruptPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 2048)
	return &b
}}

// hubVisit books the hub's earliest-free server. Under fault injection with
// a queue cap, a wait longer than QueueCap service times means the queue is
// full and the packet is dropped (reported, not booked).
func (s *Sim) hubVisit(hub int, t float64, bd *Breakdown) (float64, bool) {
	h := &s.nic.Hubs[hub]
	servers := s.hubFree[hub]
	if servers == nil {
		servers = make([]float64, lnic.HubServers)
		s.hubFree[hub] = servers
	}
	best := 0
	for i := 1; i < len(servers); i++ {
		if servers[i] < servers[best] {
			best = i
		}
	}
	start := t
	if f := servers[best]; f > start {
		start = f
	}
	if f := s.faults; f != nil && f.QueueCap > 0 && start-t > float64(f.QueueCap)*h.ServiceCycles {
		return t, true // queue overflow: drop without booking a server
	}
	if c := s.coloc; c != nil {
		if wait := start - t; wait > 0 && c.hubOwner[hub][best] != s.tenant {
			s.noteContention("hub:"+h.Name, wait)
		}
		c.hubOwner[hub][best] = s.tenant
	}
	if s.tl != nil {
		stage := "ingress-hub"
		if hub > 0 {
			stage = fmt.Sprintf("hub%d", hub)
		}
		s.tl.add(Hop{Packet: s.curPkt, Stage: stage, Unit: best, Start: start,
			Dur: h.ServiceCycles, Wait: start - t, Depth: busyAfter(servers, t)})
	}
	bd.Queue += start - t
	done := start + h.ServiceCycles
	bd.Fixed += h.ServiceCycles
	servers[best] = done
	return done, false
}

func classify(p *packet.Packet) string {
	switch {
	case p.HasTCP && p.TCP.Flags.Has(packet.FlagSYN):
		return "tcp-syn"
	case p.HasTCP:
		return "tcp"
	case p.HasUDP:
		return "udp"
	case p.HasICMP:
		return "icmp"
	default:
		return "other"
	}
}

// memPrice is what one access from the representative core into a region
// costs: lnic.AccessCycles for a load and a store (the raw latency when no
// edge connects the core to the region), and the cache-hit latency. NewContext
// folds AccessCycles into one memPrice per region, so the per-access path
// indexes a table instead of scanning the NIC's comp-mem edges.
type memPrice struct {
	load, store, hit float64
}

func priceRegion(nic *lnic.LNIC, unit, region int) memPrice {
	m := &nic.Mems[region]
	p := memPrice{hit: m.CacheHitCycles}
	var ok bool
	if p.load, ok = nic.AccessCycles(unit, region, false); !ok {
		p.load = m.LoadCycles
	}
	if p.store, ok = nic.AccessCycles(unit, region, true); !ok {
		p.store = m.StoreCycles
	}
	return p
}

// lineGeom numbers a region's memory lines: shift is log2(bytes) when the
// line size is a power of two (every shipped profile), -1 when a true
// division is needed.
type lineGeom struct {
	bytes int64
	shift int
}

func newLineGeom(lineBytes int) lineGeom {
	g := lineGeom{bytes: int64(lineBytes), shift: -1}
	if lineBytes&(lineBytes-1) == 0 {
		g.shift = bits.TrailingZeros(uint(lineBytes))
	}
	return g
}

// line returns the line holding addr (addr < 2^63, as every region is).
func (g lineGeom) line(addr uint64) int64 {
	if g.shift >= 0 {
		return int64(addr >> uint(g.shift))
	}
	return int64(addr) / g.bytes
}

// memAccess charges one access from the general cores into a region at a
// concrete address, consulting the region's cache if it has one. An injected
// soft fault (per-region rate) retries the access once, doubling its cost.
// The cost then goes to the tracer's per-region total and to bd.Mem, and is
// returned.
func (s *Sim) memAccess(region int, addr uint64, store bool, bd *Breakdown) float64 {
	p := &s.memCost[region]
	cost := p.load
	if store {
		cost = p.store
	}
	if c := s.caches[region]; c != nil && c.access(addr) {
		cost = p.hit
	}
	cost = s.faultRetry(region, s.memFaultRate(region), cost)
	if s.memCycles != nil {
		s.memCycles[region] += cost
	}
	bd.Mem += cost
	return cost
}

// memFaultRate is the injected soft-fault probability of one access into
// region (0 with fault injection off).
func (s *Sim) memFaultRate(region int) float64 {
	if s.faults == nil {
		return 0
	}
	return s.faults.MemFault[s.nic.Mems[region].Name]
}

// faultRetry returns the cost of one access into region after fault
// injection: when the region's fault rate is positive it draws the fault RNG
// once, and a fault retries the access, doubling its cost. It is small
// enough to inline, so the scan loops in env.go keep the draw in-line.
func (s *Sim) faultRetry(region int, rate, cost float64) float64 {
	if rate > 0 && s.frandFloat() < rate {
		s.noteMemFault(s.nic.Mems[region].Name)
		cost *= 2
	}
	return cost
}

// accelVisit models an accelerator visit with head-of-line blocking: the
// calling thread stalls until one of the unit's servers (its Threads) is
// free and serves this request. Under fault injection, degradation
// multiplies the service time and a queue cap overflows the request to the
// caller's software path (ok = false, nothing booked).
func (s *Sim) accelVisit(unit int, bytes int, now float64, bd *Breakdown) (float64, bool) {
	u := &s.nic.Units[unit]
	svc := u.ServiceCycles(float64(bytes))
	if f := s.faults; f != nil {
		if mult := f.Degrade[u.AccelClass]; mult > 1 {
			s.noteDegrade(u.AccelClass, svc*(mult-1))
			svc *= mult
		}
		if f.QueueCap > 0 && svc > 0 {
			if wait := s.peekWait(unit, now); wait > float64(f.QueueCap)*svc {
				return now, false
			}
		}
	}
	var depth int
	if s.tl != nil {
		depth = busyAfter(s.unitFree[unit], now)
	}
	start, server := s.claimServer(unit, now, svc)
	if s.tl != nil {
		stage := "accel:" + u.AccelClass
		if u.AccelClass == "" {
			stage = "accel:" + u.Name
		}
		s.tl.add(Hop{Packet: s.curPkt, Stage: stage, Unit: server, Start: start,
			Dur: svc, Wait: start - now, Depth: depth})
	}
	bd.Queue += start - now
	bd.Accel += svc
	return start + svc, true
}

// peekWait returns the wait a request arriving now would incur at the unit,
// without booking anything.
func (s *Sim) peekWait(unit int, now float64) float64 {
	servers := s.unitFree[unit]
	if len(servers) == 0 {
		return 0
	}
	best := servers[0]
	for _, v := range servers[1:] {
		if v < best {
			best = v
		}
	}
	if best <= now {
		return 0
	}
	return best - now
}

// engineVisit is accelVisit for fixed-function engines (parser, egress),
// booking only the unit's fixed service time.
func (s *Sim) engineVisit(unit int, now float64, bd *Breakdown) float64 {
	u := &s.nic.Units[unit]
	var depth int
	if s.tl != nil {
		depth = busyAfter(s.unitFree[unit], now)
	}
	start, server := s.claimServer(unit, now, u.FixedCycles)
	if s.tl != nil {
		s.tl.add(Hop{Packet: s.curPkt, Stage: "parse", Unit: server, Start: start,
			Dur: u.FixedCycles, Wait: start - now, Depth: depth})
	}
	bd.Queue += start - now
	bd.Fixed += u.FixedCycles
	return start + u.FixedCycles
}

// claimServer finds the unit's earliest-free server, books svc cycles on it
// starting no earlier than now, and returns the start time and server index.
func (s *Sim) claimServer(unit int, now, svc float64) (float64, int) {
	servers := s.unitFree[unit]
	if servers == nil {
		n := s.nic.Units[unit].Threads
		if n < 1 {
			n = 1
		}
		servers = make([]float64, n)
		s.unitFree[unit] = servers
	}
	best := 0
	for i := 1; i < len(servers); i++ {
		if servers[i] < servers[best] {
			best = i
		}
	}
	start := now
	if f := servers[best]; f > start {
		start = f
	}
	if c := s.coloc; c != nil {
		own := c.unitOwner[unit]
		if own == nil {
			own = make([]int, len(servers))
			for i := range own {
				own[i] = -1
			}
			c.unitOwner[unit] = own
		}
		if wait := start - now; wait > 0 && own[best] != s.tenant {
			s.noteContention(c.resName(s.nic, unit), wait)
		}
		own[best] = s.tenant
	}
	servers[best] = start + svc
	return start, best
}

// noteContention accounts one cross-tenant wait on a shared resource.
func (s *Sim) noteContention(resource string, cycles float64) {
	s.contStall += cycles
	if s.contWaits == nil {
		s.contWaits = map[string]uint64{}
		s.contCycles = map[string]float64{}
	}
	s.contWaits[resource]++
	s.contCycles[resource] += cycles
}

// objSeed is the seed of the named state object's synthesized contents:
// the state seed (StateSeed when set, Seed otherwise) hashed with the name.
func (c *Config) objSeed(name string) int64 {
	seed := c.StateSeed
	if seed == 0 {
		seed = c.Seed
	}
	return stateSeed(seed, name)
}

// stateSeed derives the RNG seed for one named state object: an FNV-1a hash
// of the name folded into the run's state seed through a splitmix64
// finalizer. The previous derivation, seed+len(name), handed byte-identical
// contents to any two objects whose names merely shared a length.
func stateSeed(seed int64, name string) int64 {
	h := uint64(0xcbf29ce484222325) // FNV-1a offset basis
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 0x100000001b3
	}
	return int64(mix64(h ^ uint64(seed)))
}

// mix64 is the splitmix64 finalizer: a bijective avalanche over uint64 used
// for every seed derivation (state objects, per-shard streams) so related
// inputs land on unrelated streams — unlike additive offsets, which alias.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (s *Sim) random() uint64 {
	s.rngState ^= s.rngState << 13
	s.rngState ^= s.rngState >> 7
	s.rngState ^= s.rngState << 17
	return s.rngState
}

// Package microbench recovers LNIC performance parameters by running
// NF-independent "unit-test" benchmark programs against a SmartNIC — §3.2's
// one-time parameterization step, and §4's list: packet parsers, checksum
// units, the flow cache, header/metadata modifications, atomic and bulk
// memory loads and stores, and general-purpose compute instructions.
//
// In the paper the device under test is real hardware; here it is the
// cycle-level simulator, and the recovered parameters are cross-checked
// against the databook values the LNIC profile publishes (experiment E6).
// The package also implements latency-curve probing with knee detection via
// the half-latency rule [Patel, PER 2014], the technique §3.2 proposes for
// finding memory-region capacities.
package microbench

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"

	"clara/internal/budget"
	"clara/internal/cir"
	"clara/internal/lnic"
	"clara/internal/nicsim"
	"clara/internal/obs"
	"clara/internal/runner"
	"clara/internal/workload"
)

// Param is one recovered performance parameter.
type Param struct {
	Name     string
	Value    float64 // cycles (or cycles/byte where noted)
	Unit     string
	Databook float64 // the profile's published value, for cross-checking
}

// Report is the complete parameter sheet for one NIC.
type Report struct {
	NIC    string
	Params []Param
}

// String renders the report as an aligned table.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "microbenchmark report for %s\n", r.NIC)
	fmt.Fprintf(&b, "%-28s %12s %12s  %s\n", "parameter", "measured", "databook", "unit")
	for _, p := range r.Params {
		fmt.Fprintf(&b, "%-28s %12.2f %12.2f  %s\n", p.Name, p.Value, p.Databook, p.Unit)
	}
	return b.String()
}

// Get returns the named parameter.
func (r *Report) Get(name string) (Param, bool) {
	for _, p := range r.Params {
		if p.Name == name {
			return p, true
		}
	}
	return Param{}, false
}

// RunContext executes the probe suite against the NIC and returns the
// recovered parameters. Probes run concurrently on workers (values < 1
// select GOMAXPROCS, 1 forces sequential probing). Every probe owns its
// simulator instance and only reads the LNIC profile, so the recovered
// parameter sheet is identical at any width: results are flattened in the
// fixed probe order, not completion order. Every probe simulation inherits
// ctx, so cancelling mid-suite aborts in-flight probes promptly and returns
// a *budget.CanceledError.
func RunContext(ctx context.Context, nic *lnic.LNIC, workers int) (*Report, error) {
	core := &nic.Units[representativeCoreID(nic)]
	param := func(name string, v float64, unit string, book float64) []Param {
		return []Param{{Name: name, Value: v, Unit: unit, Databook: book}}
	}

	// Each step measures one parameter group; the slice order fixes the
	// report order regardless of which probe finishes first.
	steps := []func(context.Context) ([]Param, error){
		// 1) General-purpose compute instructions: difference two
		// straight-line programs with controlled extra instruction counts.
		func(ctx context.Context) ([]Param, error) {
			v, err := instrCost(ctx, nic, cir.OpAdd)
			if err != nil {
				return nil, err
			}
			return param("alu", v, "cycles/instr", core.ClassCycles[cir.ClassALU]), nil
		},
		func(ctx context.Context) ([]Param, error) {
			v, err := instrCost(ctx, nic, cir.OpMul)
			if err != nil {
				return nil, err
			}
			return param("mul", v, "cycles/instr", core.ClassCycles[cir.ClassMul]), nil
		},
		func(ctx context.Context) ([]Param, error) {
			v, err := instrCost(ctx, nic, cir.OpDiv)
			if err != nil {
				return nil, err
			}
			return param("div", v, "cycles/instr", core.ClassCycles[cir.ClassDiv]), nil
		},
		// 2) Header and metadata modifications.
		func(ctx context.Context) ([]Param, error) {
			v, err := deltaCost(ctx, nic, metaProbe(1), metaProbe(9), 8)
			if err != nil {
				return nil, err
			}
			return param("metadata-mod", v, "cycles/op", nic.MetadataCycles), nil
		},
		// 3) Packet parsers.
		func(ctx context.Context) ([]Param, error) {
			v, err := parseCost(ctx, nic)
			if err != nil {
				return nil, err
			}
			return param("parse-header", v, "cycles", nic.ParseCycles), nil
		},
		// 4) Checksum unit at the accelerator vs software, 1000-byte packets.
		func(ctx context.Context) ([]Param, error) {
			cksumHW, cksumSW, err := checksumCost(ctx, nic)
			if err != nil {
				return nil, err
			}
			var out []Param
			if ids := nic.Accelerators("checksum"); len(ids) > 0 {
				u := nic.Units[ids[0]]
				hwBook := u.ServiceCycles(1020)
				out = append(out, param("checksum-accel-1000B", cksumHW, "cycles", hwBook)...)
			}
			return append(out, param("checksum-sw-1000B", cksumSW, "cycles", 0)...), nil
		},
		// 5) Flow cache hit service time.
		func(ctx context.Context) ([]Param, error) {
			ids := nic.Accelerators("flowcache")
			if len(ids) == 0 {
				return nil, nil
			}
			fc, err := flowCacheCost(ctx, nic)
			if err != nil {
				return nil, err
			}
			return param("flowcache-hit", fc, "cycles", nic.Units[ids[0]].FixedCycles), nil
		},
	}
	// 6) Memory loads/stores per region, via table probes of matching
	// placement.
	for region := range nic.Mems {
		region := region
		if _, ok := nic.AccessCycles(representativeCoreID(nic), region, false); !ok {
			continue
		}
		steps = append(steps, func(ctx context.Context) ([]Param, error) {
			m := nic.Mems[region]
			lat, err := memoryCost(ctx, nic, region)
			if err != nil {
				return nil, err
			}
			book := m.LoadCycles
			if m.CacheBytes > 0 {
				book = m.CacheHitCycles // small probe working sets stay cached
			}
			return param("mem-"+m.Name, lat, "cycles/access", book), nil
		})
	}

	groups, err := runner.Map(ctx, workers, len(steps),
		func(sctx context.Context, i int) ([]Param, error) {
			obs.From(sctx).Counter("clara_microbench_probes_total").Add(1)
			return steps[i](sctx)
		})
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return nil, &budget.CanceledError{Stage: "microbench", NF: nic.Name, Err: cerr}
		}
		return nil, err
	}
	rep := &Report{NIC: nic.Name}
	for _, g := range groups {
		rep.Params = append(rep.Params, g...)
	}
	return rep, nil
}

func representativeCoreID(nic *lnic.LNIC) int {
	id, _ := nic.PricingUnit()
	return id
}

// runProbe is how every probe of the suite runs: prog under place on a
// fresh seed-42 simulator, over a trace generated from wp's packet count,
// flows, TCP share and payload size at 1000 pps with seed 9. A probe whose
// packets fault measures nothing, so any execution error fails it.
func runProbe(ctx context.Context, nic *lnic.LNIC, prog *cir.Program, place nicsim.Placement, wp workload.Profile) (*nicsim.Result, error) {
	sim, err := nicsim.NewContext(ctx, nicsim.Config{NIC: nic, Prog: prog, Place: place, Seed: 42})
	if err != nil {
		return nil, err
	}
	wp.Name, wp.RatePPS, wp.Seed = "probe", 1000, 9
	tr, err := workload.GenerateContext(ctx, wp)
	if err != nil {
		return nil, err
	}
	res, err := sim.RunContext(ctx, tr)
	if err != nil {
		return nil, err
	}
	if res.Errors > 0 {
		return nil, fmt.Errorf("microbench: %s (%dB payloads): %d probe errors", prog.Name, wp.PayloadBytes, res.Errors)
	}
	return res, nil
}

// meanLatency runs a probe program over 64 small TCP packets and returns
// the mean packet latency in cycles.
func meanLatency(ctx context.Context, nic *lnic.LNIC, prog *cir.Program, place nicsim.Placement) (float64, error) {
	res, err := runProbe(ctx, nic, prog, place, workload.Profile{
		Packets: 64, Flows: 8, TCPFraction: 1, PayloadBytes: 64,
	})
	if err != nil {
		return 0, err
	}
	return res.MeanLatency(), nil
}

// deltaCost measures (latency(progB) - latency(progA)) / n.
func deltaCost(ctx context.Context, nic *lnic.LNIC, a, b *cir.Program, n int) (float64, error) {
	la, err := meanLatency(ctx, nic, a, nicsim.DefaultPlacement(nic, a))
	if err != nil {
		return 0, err
	}
	lb, err := meanLatency(ctx, nic, b, nicsim.DefaultPlacement(nic, b))
	if err != nil {
		return 0, err
	}
	return (lb - la) / float64(n), nil
}

// instrProbe builds a straight-line program executing op `count` times.
func instrProbe(op cir.Op, count int) *cir.Program {
	b := cir.NewBuilder(fmt.Sprintf("probe-%s-%d", op, count))
	x := b.Const(7)
	y := b.Const(3)
	for i := 0; i < count; i++ {
		x = b.Bin(op, x, y)
	}
	b.ReturnConst(cir.VerdictPass)
	return b.MustProgram()
}

func instrCost(ctx context.Context, nic *lnic.LNIC, op cir.Op) (float64, error) {
	return deltaCost(ctx, nic, instrProbe(op, 8), instrProbe(op, 72), 64)
}

// metaProbe builds a program performing n metadata modifications.
func metaProbe(n int) *cir.Program {
	b := cir.NewBuilder(fmt.Sprintf("probe-meta-%d", n))
	proto := b.Const(cir.ProtoIPv4)
	b.VCall(cir.VCGetHdr, "", proto)
	fld := b.Const(cir.FieldTOS)
	v := b.Const(7)
	for i := 0; i < n; i++ {
		b.VCallVoid(cir.VCSetField, "", proto, fld, v)
	}
	b.ReturnConst(cir.VerdictPass)
	return b.MustProgram()
}

// parseCost measures first-header parse cost as parse-vs-noop delta.
func parseCost(ctx context.Context, nic *lnic.LNIC) (float64, error) {
	noop := func() *cir.Program {
		b := cir.NewBuilder("probe-noop")
		b.ReturnConst(cir.VerdictPass)
		return b.MustProgram()
	}()
	parse := func() *cir.Program {
		b := cir.NewBuilder("probe-parse")
		proto := b.Const(cir.ProtoIPv4)
		b.VCall(cir.VCGetHdr, "", proto)
		b.ReturnConst(cir.VerdictPass)
		return b.MustProgram()
	}()
	return deltaCost(ctx, nic, noop, parse, 1)
}

// checksumCost measures the checksum unit and the software fallback on
// 1000-byte payloads.
func checksumCost(ctx context.Context, nic *lnic.LNIC) (hw, sw float64, err error) {
	prog := func() *cir.Program {
		b := cir.NewBuilder("probe-cksum")
		proto := b.Const(cir.ProtoTCP)
		b.VCall(cir.VCGetHdr, "", proto)
		b.VCall(cir.VCChecksum, "", proto)
		b.ReturnConst(cir.VerdictPass)
		return b.MustProgram()
	}()
	base := func() *cir.Program {
		b := cir.NewBuilder("probe-cksum-base")
		proto := b.Const(cir.ProtoTCP)
		b.VCall(cir.VCGetHdr, "", proto)
		b.ReturnConst(cir.VerdictPass)
		return b.MustProgram()
	}()
	run := func(p *cir.Program, accel bool) (float64, error) {
		pl := nicsim.DefaultPlacement(nic, p)
		pl.ChecksumOnAccel = accel
		res, err := runProbe(ctx, nic, p, pl, workload.Profile{
			Packets: 64, Flows: 8, TCPFraction: 1, PayloadBytes: 1000,
		})
		if err != nil {
			return 0, err
		}
		return res.MeanLatency(), nil
	}
	baseLat, err := run(base, false)
	if err != nil {
		return 0, 0, err
	}
	hwLat, err := run(prog, true)
	if err != nil {
		return 0, 0, err
	}
	swLat, err := run(prog, false)
	if err != nil {
		return 0, 0, err
	}
	return hwLat - baseLat, swLat - baseLat, nil
}

// flowCacheCost measures the hit-path service time of the flow cache.
func flowCacheCost(ctx context.Context, nic *lnic.LNIC) (float64, error) {
	prog := func() *cir.Program {
		b := cir.NewBuilder("probe-fc")
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
		return b.MustProgram()
	}()
	pl := nicsim.DefaultPlacement(nic, prog)
	pl.UseFlowCache = map[string]bool{"t": true}
	// One flow, many packets: everything after the first is a pure hit.
	res, err := runProbe(ctx, nic, prog, pl, workload.Profile{
		Packets: 512, Flows: 1, TCPFraction: 1, PayloadBytes: 64,
	})
	if err != nil {
		return 0, err
	}
	// Strip the surrounding costs with a lookup-free control program.
	ctrl := func() *cir.Program {
		b := cir.NewBuilder("probe-fc-base")
		b.VCall(cir.VCFlowKey, "")
		b.ReturnConst(cir.VerdictPass)
		return b.MustProgram()
	}()
	base, err := meanLatency(ctx, nic, ctrl, nicsim.DefaultPlacement(nic, ctrl))
	if err != nil {
		return 0, err
	}
	// The median is interpolated and the control run carries its own hub
	// noise, so the difference can come out marginally negative on a NIC
	// where the flow-cache hit is essentially free; a lookup cost is never
	// negative, so floor it.
	return math.Max(0, res.Percentile(50)-base), nil
}

// memoryCost measures per-access latency of a region using an array state
// pinned there: the probe issues 64 extra reads versus an 8-read control.
func memoryCost(ctx context.Context, nic *lnic.LNIC, region int) (float64, error) {
	probe := func(reads int) *cir.Program {
		b := cir.NewBuilder(fmt.Sprintf("probe-mem-%d", reads))
		st := b.DeclareState(cir.StateObj{Name: "a", Kind: cir.StateArray, ValueSize: 8, Capacity: 64})
		idx := b.Const(3)
		for i := 0; i < reads; i++ {
			b.VCall(cir.VCArrRead, st, idx)
		}
		b.ReturnConst(cir.VerdictPass)
		return b.MustProgram()
	}
	place := func(p *cir.Program) nicsim.Placement {
		pl := nicsim.DefaultPlacement(nic, p)
		pl.StateMem["a"] = region
		return pl
	}
	a := probe(8)
	bp := probe(72)
	la, err := meanLatency(ctx, nic, a, place(a))
	if err != nil {
		return 0, err
	}
	lb, err := meanLatency(ctx, nic, bp, place(bp))
	if err != nil {
		return 0, err
	}
	return (lb - la) / 64, nil
}

// LatencyPoint is one sample of a latency-vs-size curve.
type LatencyPoint struct {
	SizeBytes int64
	Cycles    float64 // per-byte access cost at this size
}

// PacketCurveContext probes per-byte payload access latency across packet
// sizes under a cancellable context — the §3.2 latency-curve technique
// ("memory accesses to <2 kB regions have near constant latency, but it
// dramatically increases beyond that as memory is spilled to the next level
// of hierarchy"). On the Netronome profile the knee sits at the CTM
// residency threshold: packets under 1 kB live in the CTM entirely, larger
// packets spill their tails to the EMEM.
func PacketCurveContext(ctx context.Context, nic *lnic.LNIC, sizes []int) ([]LatencyPoint, error) {
	// A payload scan: one payload_byte read per byte.
	prog := func() *cir.Program {
		b := cir.NewBuilder("probe-pktcurve")
		n := b.VCall(cir.VCPayloadLen, "")
		zero := b.Const(0)
		i := b.FreshReg()
		b.CopyInto(i, zero)
		head := b.NewBlock("head")
		body := b.NewBlock("body")
		exit := b.NewBlock("exit")
		b.Jump(head)
		b.SetBlock(head)
		c := b.Bin(cir.OpLt, i, n)
		b.Branch(c, body, exit)
		b.SetBlock(body)
		b.VCall(cir.VCPayloadByte, "", i)
		one := b.Const(1)
		i2 := b.Bin(cir.OpAdd, i, one)
		b.CopyInto(i, i2)
		b.Jump(head)
		b.SetBlock(exit)
		b.ReturnConst(cir.VerdictPass)
		return b.MustProgram()
	}()
	var out []LatencyPoint
	for _, size := range sizes {
		if err := budget.Canceled(ctx, "microbench", prog.Name); err != nil {
			return nil, err
		}
		if size < 1 {
			size = 1
		}
		res, err := runProbe(ctx, nic, prog, nicsim.DefaultPlacement(nic, prog), workload.Profile{
			Packets: 16, Flows: 4, PayloadBytes: size,
		})
		if err != nil {
			return nil, err
		}
		out = append(out, LatencyPoint{SizeBytes: int64(size), Cycles: res.MeanLatency() / float64(size)})
	}
	return out, nil
}

// Knee applies the half-latency rule [Patel] to a latency curve: the knee is
// the largest size whose latency is below the midpoint of the minimum and
// maximum observed latencies.
func Knee(points []LatencyPoint) (int64, bool) {
	if len(points) < 3 {
		return 0, false
	}
	sorted := append([]LatencyPoint(nil), points...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].SizeBytes < sorted[j].SizeBytes })
	lo, hi := sorted[0].Cycles, sorted[0].Cycles
	for _, p := range sorted {
		if p.Cycles < lo {
			lo = p.Cycles
		}
		if p.Cycles > hi {
			hi = p.Cycles
		}
	}
	if hi-lo < lo*0.2 {
		return 0, false // flat curve: no knee
	}
	half := lo + (hi-lo)/2
	knee := int64(0)
	found := false
	for _, p := range sorted {
		if p.Cycles <= half {
			knee = p.SizeBytes
			found = true
		}
	}
	return knee, found
}

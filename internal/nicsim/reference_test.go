package nicsim

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"clara/internal/budget"
	"clara/internal/cir"
	"clara/internal/lnic"
	"clara/internal/nf"
	"clara/internal/obs"
	"clara/internal/workload"
)

// referenceRunContext is the pre-optimization RunContext loop, kept verbatim
// as the behavioral reference for the zero-allocation hot path: a fresh exec
// and Hooks value per packet, the interpreter instead of the compiled engine, a fresh Decode of every frame, a fresh copy for
// corruption, and an O(threads) linear scan for dispatch. The differential
// test below requires RunContext to be reflect.DeepEqual-indistinguishable
// from this loop on the full NF corpus. When RunContext changes behavior
// deliberately, change this copy to match.
func referenceRunContext(s *Sim, ctx context.Context, tr *workload.Trace) (*Result, error) {
	lim := budget.From(ctx)
	simSteps := int(lim.SimStepLimit())
	s.runDPI = lim.DPIBytes
	res := &Result{
		NFName:       s.prog.Name,
		Packets:      make([]PacketResult, 0, len(tr.Packets)),
		CacheHitRate: map[string]float64{},
	}
	metrics := obs.From(ctx)
	usage := budget.UsageFrom(ctx)
	runSteps := int64(0)
	finish := func() *Result {
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
		res.Faults = s.report
		res.Timeline = s.tl
		usage.AddSimEvents(int64(len(res.Packets)))
		usage.AddSimSteps(runSteps)
		if metrics != nil {
			metrics.Counter("clara_sim_packets_total").Add(int64(len(res.Packets)))
			metrics.Counter("clara_sim_steps_total").Add(runSteps)
			metrics.Counter("clara_sim_errors_total").Add(int64(res.Errors))
			metrics.Counter("clara_sim_dropped_total").Add(int64(s.report.Dropped))
			metrics.Counter("clara_sim_corrupted_total").Add(int64(s.report.Corrupted))
		}
		return res
	}
	interp := cir.NewInterp(s.prog)
	clock := s.nic.ClockGHz
	for i := range tr.Packets {
		if err := ctx.Err(); err != nil {
			return nil, &budget.CanceledError{
				Stage: "simulate", NF: s.prog.Name, Err: err, Partial: finish(),
			}
		}
		if lim.SimEvents > 0 && int64(i) >= lim.SimEvents {
			return nil, &budget.ExceededError{
				Resource: "sim-events", Limit: lim.SimEvents,
				Stage: "simulate", NF: s.prog.Name, Partial: finish(),
			}
		}
		tp := &tr.Packets[i]
		arrival := tp.ArrivalNs * clock
		s.pktFaulted = false
		s.curPkt = i
		if s.memCycles != nil {
			for r := range s.memCycles {
				s.memCycles[r] = 0
			}
		}

		data := tp.Data
		if f := s.faults; f != nil && f.Corrupt > 0 && len(data) > 0 && s.frandFloat() < f.Corrupt {
			dup := make([]byte, len(data))
			copy(dup, data)
			dup[int(s.frand()%uint64(len(dup)))] ^= byte(s.frand()%255 + 1)
			data = dup
			s.report.Corrupted++
			s.pktFaulted = true
		}

		e := newExec(s)
		e.reset(data, i)
		e.pkt = &e.pktCopy
		e.pktOwned = true
		if err := e.pkt.Decode(data); err != nil {
			t, dropped := s.hubVisit(0, arrival, &e.bd)
			if dropped {
				s.report.Dropped++
				continue
			}
			if s.pktFaulted {
				s.report.FaultedPackets++
			}
			res.Packets = append(res.Packets, PacketResult{
				ArrivalCycles: arrival, DoneCycles: t, Latency: t - arrival,
				Verdict: cir.VerdictPass, Class: "other", Breakdown: e.bd,
			})
			continue
		}

		t := arrival
		if len(s.nic.Hubs) > 0 {
			var dropped bool
			t, dropped = s.hubVisit(0, t, &e.bd)
			if dropped {
				s.report.Dropped++
				continue
			}
		}
		dma := float64(len(data)/64+1) * 1.0
		s.tl.add(Hop{Packet: i, Stage: "dma", Unit: -1, Start: t, Dur: dma})
		t += dma
		e.bd.Fixed += dma
		if s.cfg.Place.ParseOnEngine {
			if parsers := s.nic.UnitsOfKind(lnic.UnitParser); len(parsers) > 0 {
				t = s.engineVisit(parsers[0], t, &e.bd)
			}
		}

		th := 0
		for j := 1; j < len(s.threadFree); j++ {
			if s.threadFree[j] < s.threadFree[th] {
				th = j
			}
		}
		start := math.Max(t, s.threadFree[th])
		if f := s.faults; f != nil && f.QueueCap > 0 && s.svcCount >= 8 {
			if avg := s.svcSum / float64(s.svcCount); start-t > float64(f.QueueCap)*avg {
				s.report.Dropped++
				continue
			}
		}
		if s.tl != nil {
			s.tl.add(Hop{Packet: i, Stage: "dispatch", Unit: th, Start: start,
				Wait: start - t, Depth: busyAfter(s.threadFree, t)})
		}
		e.bd.Queue += start - t
		e.now = start

		verdict, err := interp.Run(e, &cir.Hooks{Meter: &e.meter, MaxSteps: simSteps, Ctx: ctx})
		runSteps += e.steps
		if err != nil {
			s.threadFree[th] = e.now
			if errors.Is(err, cir.ErrStepLimit) {
				return nil, &budget.ExceededError{
					Resource: "sim-steps", Limit: int64(simSteps),
					Stage: "simulate", NF: s.prog.Name, Partial: finish(),
				}
			}
			if cerr := ctx.Err(); cerr != nil {
				return nil, &budget.CanceledError{
					Stage: "simulate", NF: s.prog.Name, Err: cerr, Partial: finish(),
				}
			}
			res.Errors++
			continue
		}
		s.threadFree[th] = e.now
		s.svcSum += e.now - start
		s.svcCount++
		if s.tl != nil {
			s.tl.add(Hop{Packet: i, Stage: "npu", Unit: th, Start: start, Dur: e.now - start})
			for r, cyc := range s.memCycles {
				if cyc > 0 {
					s.tl.add(Hop{Packet: i, Stage: "mem:" + s.nic.Mems[r].Name,
						Unit: -1, Start: start, Dur: cyc})
				}
			}
		}

		done := e.now
		if verdict == cir.VerdictPass && e.emitted {
			if eg := s.nic.UnitsOfKind(lnic.UnitEgress); len(eg) > 0 {
				svc := s.nic.Units[eg[0]].FixedCycles
				s.tl.add(Hop{Packet: i, Stage: "egress", Unit: -1, Start: done, Dur: svc})
				done += svc
				e.bd.Fixed += svc
			}
			if len(s.nic.Hubs) > 1 {
				svc := s.nic.Hubs[1].ServiceCycles
				s.tl.add(Hop{Packet: i, Stage: "egress-hub", Unit: -1, Start: done, Dur: svc})
				done += svc
				e.bd.Fixed += svc
			}
		}

		if s.pktFaulted {
			s.report.FaultedPackets++
		}
		res.Packets = append(res.Packets, PacketResult{
			ArrivalCycles: arrival, DoneCycles: done, Latency: done - arrival,
			Verdict: verdict, Class: classify(e.pkt), Breakdown: e.bd,
		})
	}
	return finish(), nil
}

// diffSim builds a simulator for the differential test; two calls with the
// same arguments produce identically configured, independently stateful Sims.
func diffSim(t *testing.T, spec nf.Spec, faults *Faults, timeline bool) *Sim {
	t.Helper()
	nic := lnic.Netronome()
	prog := spec.MustCompile()
	pl := DefaultPlacement(nic, prog)
	// Exercise the flow-cache accelerator path too: front every state with
	// it, matching how tuned placements use it.
	for _, st := range prog.State {
		pl.UseFlowCache[st.Name] = true
	}
	var f *Faults
	if faults != nil {
		cp := *faults
		f = &cp
	}
	sim, err := NewContext(context.Background(), Config{
		NIC: nic, Prog: prog, Place: pl, Preload: spec.PreloadEntries,
		Seed: 42, Faults: f, Timeline: timeline,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sim
}

// runDiff runs the optimized loop (compiled CIR) and the reference loop (the
// CIR interpreter) on twin simulators, requiring indistinguishable outcomes:
// DeepEqual Results (packets, breakdowns, fault reports, timelines, hit
// rates) and DeepEqual typed errors, including the Partial results inside
// budget errors.
func runDiff(t *testing.T, name string, spec nf.Spec, faults *Faults, tr *workload.Trace, lim budget.Limits) {
	t.Helper()
	ctx := budget.With(context.Background(), lim)

	fastSim := diffSim(t, spec, faults, true)
	fastRes, fastErr := fastSim.RunContext(ctx, tr)

	refSim := diffSim(t, spec, faults, true)
	refRes, refErr := referenceRunContext(refSim, ctx, tr)

	if fastErr != nil || refErr != nil {
		if !reflect.DeepEqual(fastErr, refErr) {
			t.Fatalf("%s: error mismatch\nfast: %#v\nref:  %#v", name, fastErr, refErr)
		}
		// Partial results inside budget errors must match too.
		var fe, re *budget.ExceededError
		if errors.As(fastErr, &fe) && errors.As(refErr, &re) {
			fastRes, refRes = resultOf(fe.Partial), resultOf(re.Partial)
		}
		var fc, rc *budget.CanceledError
		if errors.As(fastErr, &fc) && errors.As(refErr, &rc) {
			fastRes, refRes = resultOf(fc.Partial), resultOf(rc.Partial)
		}
	}
	if (fastRes == nil) != (refRes == nil) {
		t.Fatalf("%s: fast result nil=%v, reference nil=%v", name, fastRes == nil, refRes == nil)
	}
	if fastRes == nil {
		return
	}
	if !reflect.DeepEqual(fastRes, refRes) {
		if !reflect.DeepEqual(fastRes.Packets, refRes.Packets) {
			for i := range fastRes.Packets {
				if i < len(refRes.Packets) && !reflect.DeepEqual(fastRes.Packets[i], refRes.Packets[i]) {
					t.Fatalf("%s: packet %d differs\nfast: %+v\nref:  %+v",
						name, i, fastRes.Packets[i], refRes.Packets[i])
				}
			}
			t.Fatalf("%s: packet count %d fast vs %d reference",
				name, len(fastRes.Packets), len(refRes.Packets))
		}
		t.Fatalf("%s: results differ beyond packets\nfast: faults=%+v hits=%v fchr=%v errs=%d\nref:  faults=%+v hits=%v fchr=%v errs=%d",
			name, fastRes.Faults, fastRes.CacheHitRate, fastRes.FlowCacheHitRate, fastRes.Errors,
			refRes.Faults, refRes.CacheHitRate, refRes.FlowCacheHitRate, refRes.Errors)
	}
}

func resultOf(v interface{}) *Result {
	r, _ := v.(*Result)
	return r
}

// benchSim builds the benchmark fixture: firewall NF, 512-packet trace with
// a warm decode cache, timeline and faults off — the same steady state the
// root package's BenchmarkSimRun measures.
func benchSim(b *testing.B) (*Sim, *workload.Trace) {
	b.Helper()
	spec := nf.Firewall(65536)
	prog := spec.MustCompile()
	nic := lnic.Netronome()
	sim, err := NewContext(context.Background(), Config{
		NIC: nic, Prog: prog, Place: DefaultPlacement(nic, prog),
		Preload: spec.PreloadEntries, Seed: 11,
	})
	if err != nil {
		b.Fatal(err)
	}
	p := workload.DefaultProfile()
	p.Packets = 512
	p.Flows = 64
	tr, err := workload.GenerateContext(context.Background(), p)
	if err != nil {
		b.Fatal(err)
	}
	tr.Decoded()
	return sim, tr
}

// BenchmarkRunContextFast measures the optimized hot path; contrast with
// BenchmarkRunContextReference below for the speedup the zero-allocation
// rework bought.
func BenchmarkRunContextFast(b *testing.B) {
	sim, tr := benchSim(b)
	ctx := context.Background()
	if _, err := sim.RunContext(ctx, tr); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.RunContext(ctx, tr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunContextReference measures the pre-optimization loop on the
// same fixture.
func BenchmarkRunContextReference(b *testing.B) {
	sim, tr := benchSim(b)
	ctx := context.Background()
	if _, err := referenceRunContext(sim, ctx, tr); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := referenceRunContext(sim, ctx, tr); err != nil {
			b.Fatal(err)
		}
	}
}

// TestRunContextMatchesReference sweeps the full NF corpus through the
// optimized hot path and the pre-optimization reference loop under the
// harshest observable configuration — timeline tracing on, fault injection
// (corruption, degradation, queue caps, memory faults) on a fixed seed — and
// through budget trips mid-run, requiring byte-identical Results and errors.
func TestRunContextMatchesReference(t *testing.T) {
	p := workload.DefaultProfile()
	p.Packets = 256
	p.Flows = 48
	tr, err := workload.GenerateContext(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	faults := &Faults{
		Corrupt:  0.08,
		Degrade:  map[string]float64{"checksum": 2},
		MemFault: map[string]float64{"emem": 0.02},
		QueueCap: 64,
		Seed:     9,
	}
	for _, name := range nf.Names() {
		spec := nf.All()[name]
		t.Run(name, func(t *testing.T) {
			runDiff(t, name+"/healthy", spec, nil, tr, budget.Limits{})
			runDiff(t, name+"/faults", spec, faults, tr, budget.Limits{})
			// Budgets tripping mid-run: an event cap strictly inside the
			// trace, and a per-packet step cap low enough to trip.
			runDiff(t, name+"/events-trip", spec, faults, tr, budget.Limits{SimEvents: 100})
			runDiff(t, name+"/steps-trip", spec, nil, tr, budget.Limits{SimSteps: 40})
		})
	}
}

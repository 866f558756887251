package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"clara"
	"clara/internal/budget"
	"clara/internal/mapper"
	"clara/internal/nf"
	"clara/internal/nicsim"
	"clara/internal/workload"
)

// Trace shapes of the simulate workload. Small traces keep flow state inside
// the modelled caches; large ones spread 64k flows of ~1400-byte payloads,
// which forces EMEM misses and makes DPI scale with bytes.
var simShapes = []struct{ name, spec string }{
	{"small", "packets=4096,flows=256,size=10,rate=60000,tcp=0.8"},
	{"large", "packets=1024,flows=65536,size=1400,jitter=64,rate=60000,tcp=0.8"},
}

// simSolo lists the solo cases' NFs and targets; each runs every shape.
var simSolo = []struct {
	spec   nf.Spec
	target string
}{
	{nf.Firewall(65536), "netronome"},
	{nf.LPM(10000), "netronome"},
	{nf.VNFChain(), "netronome"},
	{nf.NAT(true), "netronome"},
	{nf.Syncookie(), "netronome"},
	{nf.Firewall(65536), "armsoc"},
}

// simPair is the co-located firewall+NAT pair, run once per shape.
var simPair = []nf.Spec{nf.Firewall(65536), nf.NAT(false)}

type simCase struct {
	name   string
	nf     *clara.NF
	target *clara.Target
	m      *clara.Mapping
	trace  *clara.Trace
	seed   int64
	ref    [32]byte
}

func (c *simCase) config() nicsim.Config {
	return nicsim.Config{NIC: c.target, Prog: c.nf.Program, Place: clara.PlacementOf(c.m),
		Preload: c.nf.Preload, Seed: c.seed}
}

type colocCase struct {
	name    string
	nfs     []*clara.NF
	weights []float64
	target  *clara.Target
	maps    []*clara.Mapping
	traces  []*clara.Trace
	seed    int64
	ref     [][32]byte
}

func (c *colocCase) config() nicsim.ColocConfig {
	cfg := nicsim.ColocConfig{NIC: c.target, Seed: c.seed}
	for i, n := range c.nfs {
		cfg.Tenants = append(cfg.Tenants, nicsim.Tenant{Weight: c.weights[i], Prog: n.Program,
			Place: clara.PlacementOf(c.maps[i]), Preload: n.Preload, Trace: c.traces[i]})
	}
	return cfg
}

type simInputs struct {
	solo  []simCase
	coloc []colocCase
	// predErr is the mean absolute relative error of the predicted mean
	// latency against the simulated one over the solo cases, in percent.
	predErr float64
	// pieces holds the time each case took to set up, in seconds.
	pieces []float64
}

func compileSpec(s nf.Spec) (*clara.NF, error) {
	n, err := clara.CompileNF(s.Source)
	if err != nil {
		return nil, fmt.Errorf("compile %s: %w", s.Name, err)
	}
	for k, v := range s.PreloadEntries {
		n.Preload[k] = v
	}
	return n, nil
}

// genTrace generates and decodes one seeded trace, under spans when traced.
func genTrace(ctx context.Context, tr *tracer, spec string, seed int64) (*clara.Trace, workload.Stats, error) {
	prof, err := clara.ParseTrafficProfile(spec)
	if err != nil {
		return nil, workload.Stats{}, err
	}
	prof.Seed = seed
	id := tr.begin("workload.generate", 0, 0)
	trace, err := clara.GenerateTraceContext(ctx, prof)
	tr.end(id)
	if err != nil {
		return nil, workload.Stats{}, err
	}
	id = tr.begin("workload.decode", 0, 0)
	trace.Decoded()
	tr.end(id)
	return trace, trace.Stats(), nil
}

// simSetup builds every case: traces generated and decoded, NFs compiled,
// enumerated and mapped, predictions made, and each case's reference digest
// computed on the sharded engine with one window.
func simSetup(seed int64, tr *tracer) (*simInputs, error) {
	ctx := context.Background()
	in := &simInputs{}
	errSum := 0.0
	for si, shape := range simShapes {
		for ci, c := range simSolo {
			t0 := time.Now()
			sc := simCase{name: fmt.Sprintf("%s/%s/%s", c.spec.Name, c.target, shape.name),
				seed: seedFor(seed, "sim", 100*si+ci)}
			var err error
			if sc.nf, err = compileSpec(c.spec); err != nil {
				return nil, err
			}
			if sc.target, err = clara.NewTarget(c.target); err != nil {
				return nil, err
			}
			trace, stats, err := genTrace(ctx, tr, shape.spec, seedFor(seed, "trace", 100*si+ci))
			if err != nil {
				return nil, err
			}
			sc.trace = trace
			wl := mapper.FromStats(stats)
			if sc.m, err = sc.nf.MapContext(ctx, sc.target, wl, clara.Hints{}); err != nil {
				return nil, fmt.Errorf("%s: map: %w", sc.name, err)
			}
			id := tr.begin("predict", 0, 0)
			pred, err := sc.nf.PredictMappedContext(ctx, sc.target, sc.m, wl, clara.PredictOptions{})
			tr.end(id)
			if err != nil {
				return nil, fmt.Errorf("%s: predict: %w", sc.name, err)
			}
			ref, err := nicsim.RunShardedContext(ctx, sc.config(), trace,
				nicsim.ShardOpts{Workers: 1, Window: len(trace.Packets)})
			if err != nil {
				return nil, fmt.Errorf("%s: reference run: %w", sc.name, err)
			}
			sc.ref = digest(ref)
			simNs := sc.target.CyclesToNanos(ref.MeanLatency())
			errSum += math.Abs(pred.MeanNanos-simNs) / simNs
			in.solo = append(in.solo, sc)
			in.pieces = append(in.pieces, time.Since(t0).Seconds())
		}
		t0 := time.Now()
		cc := colocCase{name: "firewall+nat/netronome/" + shape.name, weights: []float64{1, 1},
			seed: seedFor(seed, "coloc", si)}
		var err error
		if cc.target, err = clara.NewTarget("netronome"); err != nil {
			return nil, err
		}
		for ti, s := range simPair {
			n, err := compileSpec(s)
			if err != nil {
				return nil, err
			}
			trace, stats, err := genTrace(ctx, tr, shape.spec, seedFor(seed, "coloc-trace", 10*si+ti))
			if err != nil {
				return nil, err
			}
			m, err := n.MapContext(ctx, cc.target, mapper.FromStats(stats), clara.Hints{})
			if err != nil {
				return nil, fmt.Errorf("%s: map: %w", cc.name, err)
			}
			cc.nfs, cc.traces, cc.maps = append(cc.nfs, n), append(cc.traces, trace), append(cc.maps, m)
		}
		refs, err := clara.MeasureColocatedContext(ctx, cc.nfs, cc.weights, cc.target, cc.traces, cc.seed,
			clara.MeasureOptions{Shards: 1})
		if err != nil {
			return nil, fmt.Errorf("%s: reference run: %w", cc.name, err)
		}
		for _, r := range refs {
			cc.ref = append(cc.ref, digest(r))
		}
		in.coloc = append(in.coloc, cc)
		in.pieces = append(in.pieces, time.Since(t0).Seconds())
	}
	in.predErr = 100 * errSum / float64(len(in.solo))
	return in, nil
}

// simTally accumulates one pass over the cases.
type simTally struct {
	rounds              []round
	soloSecs, colocSecs float64
	attempted, failed   int
}

// simMinRounds is the fewest rounds of a run the metrics are taken from.
const simMinRounds = 30

// simPass runs whole rounds over every case until dur has been spent in
// measure calls and the rounds of all parts number at least simMinRounds. Each call builds a fresh Sim (MeasureOptionsContext with the
// solo engine; the co-located engine with one worker per CPU) and its output
// is checked against the case's reference digest. Round classes are
// "solo/<case>" and "coloc/<case>".
func simPass(ctx context.Context, in *simInputs, dur time.Duration, nparts int) simTally {
	var t simTally
	workers := runtime.NumCPU()
	for t.soloSecs+t.colocSecs < dur.Seconds() || len(t.rounds)*nparts < simMinRounds {
		rd := newRound()
		for i := range in.solo {
			c := &in.solo[i]
			t0 := time.Now()
			res, err := c.nf.MeasureOptionsContext(ctx, c.target, c.m, c.trace, c.seed, clara.MeasureOptions{})
			secs := time.Since(t0).Seconds()
			t.attempted++
			t.soloSecs += secs
			rd.Secs += secs
			if err != nil || digest(res) != c.ref {
				t.failed++
				continue
			}
			class := fmt.Sprintf("solo/%d", i)
			rd.Ms[class] = []float64{secs * 1e3}
			rd.Units[class] = len(res.Packets)
		}
		for i := range in.coloc {
			c := &in.coloc[i]
			t0 := time.Now()
			res, err := clara.MeasureColocatedContext(ctx, c.nfs, c.weights, c.target, c.traces, c.seed,
				clara.MeasureOptions{Shards: workers})
			secs := time.Since(t0).Seconds()
			t.attempted++
			t.colocSecs += secs
			rd.Secs += secs
			if err != nil || !digestsMatch(res, c.ref) {
				t.failed++
				continue
			}
			class := fmt.Sprintf("coloc/%d", i)
			rd.Ms[class] = []float64{secs * 1e3}
			for _, r := range res {
				rd.Units[class] += len(r.Packets)
			}
		}
		t.rounds = append(t.rounds, rd)
	}
	return t
}

// measureSimulate is one part of an untraced simulate run.
func measureSimulate(cfg runConfig) (*partResult, error) {
	in, pieces, since, err := timedSetups(func() (*simInputs, []float64, error) {
		in, err := simSetup(cfg.seed, nil)
		if err != nil {
			return nil, nil, err
		}
		return in, in.pieces, nil
	}, nil)
	if err != nil {
		return nil, err
	}
	t := simPass(context.Background(), in, cfg.dur, measureParts)
	return &partResult{SetupPieces: pieces, SinceStart: since, Attempted: t.attempted,
		Failed: t.failed, Rounds: t.rounds, PredErrPct: in.predErr}, nil
}

func runSimulate(cfg runConfig) (*outcome, error) {
	if cfg.traced {
		tr := newTracer()
		in, err := simSetup(cfg.seed, tr)
		if err != nil {
			return nil, err
		}
		ctx := context.Background()
		t := simPass(ctx, in, cfg.dur, 1)
		out := newOutcome()
		out.attempted, out.failed = t.attempted, t.failed
		out.set("pred_err_pct", in.predErr, "%", len(in.solo))
		return out, traceSimulate(ctx, tr, in, t, out)
	}
	all, out, err := runParts(cfg)
	if err != nil {
		return nil, err
	}
	// Each case's calls are identical work, so its median call time is its
	// typical cost; on a shared host the median of a run's calls moves less
	// between runs than its low quantiles, which ride on the host's fastest
	// moments.
	solo := classNames("solo", len(simSolo)*len(simShapes))
	coloc := classNames("coloc", len(simShapes))
	soloTypical, soloCostly, simPPS := classSummary(all.Rounds, solo, 50)
	colocTypical, colocCostly, colocPPS := classSummary(all.Rounds, coloc, 50)
	n := len(all.Rounds)
	out.set("pred_err_pct", all.PredErrPct, "%", len(solo))
	out.set("typical_ms", soloTypical, "ms", n*len(solo))
	out.set("tail_ms", soloCostly, "ms", n)
	out.set("alt_typical_ms", colocTypical, "ms", n*len(coloc))
	out.set("alt_tail_ms", colocCostly, "ms", n)
	out.set("rate_per_s", simPPS, "1/s", n*len(solo))
	out.set("sim_pps", simPPS, "1/s", n*len(solo))
	out.set("coloc_pps", colocPPS, "1/s", n*len(coloc))
	return out, nil
}

// simStats accumulates the simulator's own (simulated-cycle) statistics.
type simStats struct {
	pkts      int
	cycles    float64
	bd        nicsim.Breakdown
	hit       map[string][]float64
	flowHit   []float64
	stall     float64
	colocPkts int
}

func (s *simStats) addSolo(r *nicsim.Result) {
	for i := range r.Packets {
		p := &r.Packets[i]
		s.cycles += p.Latency
		s.bd.Compute += p.Breakdown.Compute
		s.bd.Mem += p.Breakdown.Mem
		s.bd.Accel += p.Breakdown.Accel
		s.bd.Queue += p.Breakdown.Queue
		s.bd.Fixed += p.Breakdown.Fixed
	}
	s.pkts += len(r.Packets)
	for region, rate := range r.CacheHitRate {
		s.hit[region] = append(s.hit[region], rate)
	}
	if !math.IsNaN(r.FlowCacheHitRate) {
		s.flowHit = append(s.flowHit, r.FlowCacheHitRate)
	}
}

// traceSimulate replays one round of every case through nicsim's public
// functions under spans and the CPU profiler, repeating rounds until it has
// run as many as the untraced pass did.
func traceSimulate(ctx context.Context, tr *tracer, in *simInputs, untraced simTally, out *outcome) error {
	usage := &budget.Usage{}
	uctx := budget.WithUsage(ctx, usage)
	workers := runtime.NumCPU()
	st := simStats{hit: map[string][]float64{}}
	var allocs []float64
	soloPkts, colocPkts := 0, 0
	tracedSecs := 0.0
	req := 0
	loop, err := profiled(func() error {
		for round := range untraced.rounds {
			for i := range in.solo {
				c := &in.solo[i]
				req++
				t0 := time.Now()
				root := tr.begin("measure", 0, req)
				id := tr.begin("nicsim.new", root, req)
				sim, err := nicsim.NewContext(uctx, c.config())
				tr.end(id)
				if err != nil {
					return fmt.Errorf("%s: %w", c.name, err)
				}
				var ms0, ms1 runtime.MemStats
				runtime.ReadMemStats(&ms0)
				id = tr.begin("nicsim.run", root, req)
				res, err := sim.RunContext(uctx, c.trace)
				tr.end(id)
				runtime.ReadMemStats(&ms1)
				tr.end(root)
				tracedSecs += time.Since(t0).Seconds()
				if err != nil || digest(res) != c.ref {
					out.failed++
					continue
				}
				allocs = append(allocs, float64(ms1.Mallocs-ms0.Mallocs))
				soloPkts += len(res.Packets)
				if round == 0 {
					st.addSolo(res)
				}
			}
			for i := range in.coloc {
				c := &in.coloc[i]
				req++
				t0 := time.Now()
				root := tr.begin("measure.coloc", 0, req)
				id := tr.begin("nicsim.coloc", root, req)
				res, err := nicsim.RunColocatedContext(uctx, c.config(), nicsim.ShardOpts{Workers: workers})
				tr.end(id)
				tr.end(root)
				tracedSecs += time.Since(t0).Seconds()
				if err != nil || !digestsMatch(res, c.ref) {
					out.failed++
					continue
				}
				for _, r := range res {
					colocPkts += len(r.Packets)
					if round == 0 {
						st.colocPkts += len(r.Packets)
						if r.Contention != nil {
							st.stall += r.Contention.StallCycles
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	spans := tr.snapshot()
	ss := statsByName(spans)
	snap := usage.Snapshot(budget.Limits{})
	pkts := float64(soloPkts + colocPkts)
	out.set("workload.gen_us_per_kpkt", perKpkt(ss["workload.generate"], in), "us", spanN(ss, "workload.generate"))
	out.set("workload.decode_us_per_kpkt", perKpkt(ss["workload.decode"], in), "us", spanN(ss, "workload.decode"))
	out.set("predict.us", ss["predict"].meanSelfUs(), "us", spanN(ss, "predict"))
	out.set("nicsim.new_us", ss["nicsim.new"].meanSelfUs(), "us", spanN(ss, "nicsim.new"))
	if s := ss["nicsim.run"]; s != nil && soloPkts > 0 {
		out.set("nicsim.run_ns_per_pkt", float64(s.self)/float64(soloPkts), "ns", soloPkts)
	}
	if s := ss["nicsim.coloc"]; s != nil && colocPkts > 0 {
		out.set("nicsim.coloc_ns_per_pkt", float64(s.self)/float64(colocPkts), "ns", colocPkts)
	}
	out.set("nicsim.allocs_per_run", mean(allocs), "count", len(allocs))
	out.set("nicsim.steps_per_pkt", float64(snap.SimSteps)/pkts, "count", int(pkts))
	out.set("nicsim.events_per_pkt", float64(snap.SimEvents)/pkts, "count", int(pkts))
	n := float64(st.pkts)
	out.set("sim.cycles_per_pkt", st.cycles/n, "cycles", st.pkts)
	out.set("sim.bd.compute", st.bd.Compute/n, "cycles", st.pkts)
	out.set("sim.bd.mem", st.bd.Mem/n, "cycles", st.pkts)
	out.set("sim.bd.accel", st.bd.Accel/n, "cycles", st.pkts)
	out.set("sim.bd.queue", st.bd.Queue/n, "cycles", st.pkts)
	out.set("sim.bd.fixed", st.bd.Fixed/n, "cycles", st.pkts)
	for region, rates := range st.hit {
		out.set("sim.cache_hit."+region, mean(rates), "ratio", len(rates))
	}
	out.set("sim.flowcache_hit", mean(st.flowHit), "ratio", len(st.flowHit))
	out.set("sim.stall_cycles", st.stall/float64(st.colocPkts), "cycles", st.colocPkts)
	untracedSecs := untraced.soloSecs + untraced.colocSecs
	out.set("trace.overhead_pct", 100*(tracedSecs-untracedSecs)/untracedSecs, "%", req)
	layer := 0.0
	for _, name := range []string{"nicsim.new", "nicsim.run", "nicsim.coloc"} {
		if s := ss[name]; s != nil {
			layer += float64(s.exclusive)
		}
	}
	out.set("trace.accounted_pct", 100*layer/1e9/tracedSecs, "%", req)
	for k, v := range loop {
		out.set(k, v, "%", 1)
	}
	out.spans, out.loop = spans, loop
	return nil
}

// perKpkt is the mean time per thousand packets of the set-up's trace spans.
func perKpkt(s *spanStat, in *simInputs) float64 {
	if s == nil {
		return 0
	}
	pkts := 0
	for _, c := range in.solo {
		pkts += len(c.trace.Packets)
	}
	for _, c := range in.coloc {
		for _, t := range c.traces {
			pkts += len(t.Packets)
		}
	}
	return float64(s.self) / 1e3 / (float64(pkts) / 1e3)
}

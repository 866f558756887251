package main

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"time"

	"clara"
	"clara/internal/budget"
	"clara/internal/cir"
	"clara/internal/lnic"
	"clara/internal/mapper"
	"clara/internal/nfc"
	"clara/internal/predict"
	"clara/internal/runner"
	"clara/internal/symexec"
)

// adviseWarm is how many warm advise calls follow each cold one.
const adviseWarm = 10

// Tail percentiles of warm and cold advise latency, printed besides the
// end-to-end metrics. A closed-loop pass runs past its measured seconds until
// each has minBeyond samples above it.
const (
	adviseWarmP = 99
	adviseColdP = 90
)

// adviseQ is the percentile of each family's call times the end-to-end
// metrics are built from. Sources differ within a family, and advise
// allocates heavily, so on a shared host a call's time depends more on the
// moment it ran than on its source: a family's median moves by 20% between
// runs, its 10th percentile by under 10%.
const adviseQ = 10

// adviseWarmup is how many sources set-up pushes through the cold and warm
// path first, so lazy runtime set-up (heap growth, page faults) is paid
// before timing.
const adviseWarmup = 16

// adviseCase is the i-th input of the advise stream: a never-seen NF source
// and the workload specs of its cold call (specs[0]) and warm calls.
type adviseCase struct {
	src   string
	specs []string
	wls   []clara.Workload
}

func newAdviseCase(seed int64, tag string, i int) (adviseCase, error) {
	r := rand.New(rand.NewSource(seedFor(seed, "advise-"+tag, i)))
	c := adviseCase{src: nfSource(r, i%len(families), tag, i).Source}
	for k := 0; k <= adviseWarm; k++ {
		spec := workloadSpec(r)
		wl, err := clara.ParseWorkload(spec)
		if err != nil {
			return c, fmt.Errorf("workload %q: %w", spec, err)
		}
		c.specs, c.wls = append(c.specs, spec), append(c.wls, wl)
	}
	return c, nil
}

// adviseOp is one timed advise call and what it returned.
type adviseOp struct {
	cold    bool
	ms      float64
	ranking []clara.Advice
	err     error
}

// adviseSource runs one case the way a user does: compile and advise cold,
// then advise warm under each further spec. It also returns the compiled NF.
func adviseSource(ctx context.Context, c adviseCase) ([]adviseOp, *clara.NF) {
	ops := make([]adviseOp, 0, len(c.wls))
	t0 := time.Now()
	nfv, err := clara.CompileNF(c.src)
	if err != nil {
		return append(ops, adviseOp{cold: true, err: err, ms: msSince(t0)}), nil
	}
	for k, wl := range c.wls {
		if k > 0 {
			t0 = time.Now()
		}
		ranking, err := clara.AdviseContext(ctx, nfv, wl, 0)
		ops = append(ops, adviseOp{cold: k == 0, ms: msSince(t0), ranking: ranking, err: err})
	}
	return ops, nfv
}

// checkRankings is the advise output check: every ranking must equal the
// sequential (width-1) ranking of the same NF and workload.
func checkRankings(nfv *clara.NF, c adviseCase, ops []adviseOp) {
	for k := range ops {
		if ops[k].err != nil {
			continue
		}
		ref, err := clara.AdviseParallel(nfv, c.wls[k], 1)
		if err != nil || !reflect.DeepEqual(ref, ops[k].ranking) {
			ops[k].err = fmt.Errorf("ranking differs from the width-1 ranking")
		}
	}
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }

// advisePass runs whole rounds, each one never-seen source of every family
// advised cold and then warm, until dur has been spent in advise calls and
// the rounds of all parts hold enough samples for both tails. Sources are
// drawn from the stream named tag. With check set it checks each case's
// rankings after timing it.
func advisePass(ctx context.Context, seed int64, tag string, dur time.Duration, nparts int, check bool) ([]adviseCase, []adviseOp, []round, error) {
	var cases []adviseCase
	var ops []adviseOp
	var rounds []round
	spent := 0.0
	for spent < dur.Seconds() || !adviseEnough(len(rounds)*nparts) {
		rd := newRound()
		for f := range families {
			c, err := newAdviseCase(seed, tag, len(cases))
			if err != nil {
				return nil, nil, nil, err
			}
			got, nfv := adviseSource(ctx, c)
			if check && nfv != nil {
				checkRankings(nfv, c, got)
			}
			for _, op := range got {
				rd.Secs += op.ms / 1e3
				switch {
				case op.err != nil:
				case op.cold:
					rd.add(fmt.Sprintf("cold/%d", f), op.ms)
				default:
					rd.add(fmt.Sprintf("warm/%d", f), op.ms)
				}
			}
			cases, ops = append(cases, c), append(ops, got...)
		}
		spent += rd.Secs
		rounds = append(rounds, rd)
	}
	return cases, ops, rounds, nil
}

// adviseEnough reports whether n rounds leave minBeyond samples beyond both
// tails.
func adviseEnough(n int) bool {
	k := n * len(families)
	return n > 0 && k >= minSamples(adviseColdP) && k*adviseWarm >= minSamples(adviseWarmP)
}

// adviseSetup pushes adviseWarmup sources through the cold and warm path and
// returns the time of each, in seconds.
func adviseSetup(seed int64) ([]float64, error) {
	var pieces []float64
	for i := 0; i < adviseWarmup; i++ {
		t0 := time.Now()
		c, err := newAdviseCase(seed, "w", i)
		if err != nil {
			return nil, err
		}
		ops, _ := adviseSource(context.Background(), c)
		for _, op := range ops {
			if op.err != nil {
				return nil, fmt.Errorf("warm-up advise: %w", op.err)
			}
		}
		pieces = append(pieces, time.Since(t0).Seconds())
	}
	return pieces, nil
}

// measureAdvise is one part of an untraced advise run. Each part draws its
// sources from a stream of its own.
func measureAdvise(cfg runConfig) (*partResult, error) {
	_, pieces, since, err := timedSetups(func() (struct{}, []float64, error) {
		p, err := adviseSetup(cfg.seed)
		return struct{}{}, p, err
	}, nil)
	if err != nil {
		return nil, err
	}
	_, ops, rounds, err := advisePass(context.Background(), cfg.seed, fmt.Sprintf("s%d", cfg.part), cfg.dur, measureParts, true)
	if err != nil {
		return nil, err
	}
	res := &partResult{SetupPieces: pieces, SinceStart: since, Attempted: len(ops), Rounds: rounds}
	for _, op := range ops {
		if op.err != nil {
			res.Failed++
		}
	}
	return res, nil
}

func runAdvise(cfg runConfig) (*outcome, error) {
	if cfg.traced {
		return traceAdviseRun(cfg)
	}
	all, out, err := runParts(cfg)
	if err != nil {
		return nil, err
	}
	cold, warm := classNames("cold", len(families)), classNames("warm", len(families))
	warmTypical, warmCostly, _ := classSummary(all.Rounds, warm, adviseQ)
	coldTypical, coldCostly, _ := classSummary(all.Rounds, cold, adviseQ)
	_, _, rate := classSummary(all.Rounds, append(warm, cold...), adviseQ)
	var coldMs, warmMs latency
	for f := range families {
		coldMs.ms = append(coldMs.ms, pooled(all.Rounds, cold[f])...)
		warmMs.ms = append(warmMs.ms, pooled(all.Rounds, warm[f])...)
	}
	n := len(coldMs.ms) + len(warmMs.ms)
	out.set("typical_ms", warmTypical, "ms", len(warmMs.ms))
	out.set("tail_ms", warmCostly, "ms", len(warmMs.ms))
	out.set("alt_typical_ms", coldTypical, "ms", len(coldMs.ms))
	out.set("alt_tail_ms", coldCostly, "ms", len(coldMs.ms))
	out.set("rate_per_s", rate, "1/s", n)
	// Plain quantiles over all calls, printed for reference.
	out.set("advise_warm_p50_ms", warmMs.p50(), "ms", len(warmMs.ms))
	out.set("advise_warm_p99_ms", warmMs.tailAt(adviseWarmP), "ms", len(warmMs.ms))
	out.set("advise_cold_p50_ms", coldMs.p50(), "ms", len(coldMs.ms))
	out.set("advise_cold_p90_ms", coldMs.tailAt(adviseColdP), "ms", len(coldMs.ms))
	return out, nil
}

// traceAdviseRun is the traced advise run: one process sets up, runs an
// untraced pass, and replays its inputs through the layers.
func traceAdviseRun(cfg runConfig) (*outcome, error) {
	if _, err := adviseSetup(cfg.seed); err != nil {
		return nil, err
	}
	ctx := context.Background()
	cases, ops, _, err := advisePass(ctx, cfg.seed, "s", cfg.dur, 1, false)
	if err != nil {
		return nil, err
	}
	out := newOutcome()
	out.attempted = len(ops)
	return out, traceAdvise(ctx, cases, ops, out)
}

// tracedNF is one NF taken through the layers by hand, with the annotated
// graphs clara.NF would memoize.
type tracedNF struct {
	prog      *cir.Program
	graph     *cir.Graph
	classes   []symexec.Class
	annotated map[symexec.Weights]*cir.Graph
}

// adviseCounts are the per-layer counts of a traced pass.
type adviseCounts struct {
	allocs, instrs, steps, paths []float64
	feasible, attempts           int
	eff                          []float64
}

// traceAdvise replays the untraced pass's inputs through the layers in the
// order clara.AdviseContext calls them, under spans and the CPU profiler,
// and checks each traced ranking against the untraced one.
func traceAdvise(ctx context.Context, cases []adviseCase, ops []adviseOp, out *outcome) error {
	untracedMs := 0.0
	for _, op := range ops {
		untracedMs += op.ms
	}
	tr := newTracer()
	usage := &budget.Usage{}
	uctx := budget.WithUsage(ctx, usage)
	var counts adviseCounts
	var rankings [][]clara.Advice
	loop, err := profiled(func() error {
		req := 0
		for _, c := range cases {
			var nf *tracedNF
			for k, wl := range c.wls {
				req++
				name := "advise.warm"
				if k == 0 {
					name = "advise.cold"
				}
				t0 := time.Now()
				root := tr.begin(name, 0, req)
				if k == 0 {
					var err error
					if nf, err = traceCompile(uctx, tr, root, req, c.src, usage, &counts); err != nil {
						tr.end(root)
						rankings = append(rankings, nil)
						break
					}
				}
				ranking, targets := traceAdviseCall(ctx, tr, root, req, nf, wl, &counts)
				tr.end(root)
				wall := time.Since(t0)
				rankings = append(rankings, ranking)
				counts.eff = append(counts.eff, float64(targets)/float64(wall)/float64(runner.Parallelism(0)))
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	spans := tr.snapshot()
	for i, op := range ops {
		if op.err != nil || i >= len(rankings) || !reflect.DeepEqual(op.ranking, rankings[i]) {
			out.failed++
		}
	}
	st := statsByName(spans)
	tracedMs, layerNs := 0.0, 0.0
	mapSum, mapN := 0.0, 0
	for name, s := range st {
		switch {
		case name == "advise.cold" || name == "advise.warm":
			tracedMs += float64(s.dur) / 1e6
		case len(name) > 11 && name[:11] == "mapper.map.":
			out.set("mapper.map_us."+name[11:], s.meanSelfUs(), "us", s.n)
			mapSum += float64(s.self) / 1e3
			mapN += s.n
			layerNs += float64(s.exclusive)
		case name == "nfc.compile" || name == "cir.graph" || name == "symexec.enum" ||
			name == "symexec.annotate" || name == "predict":
			layerNs += float64(s.exclusive)
		}
	}
	out.set("nfc.compile_us", st["nfc.compile"].meanSelfUs(), "us", spanN(st, "nfc.compile"))
	out.set("nfc.allocs", mean(counts.allocs), "count", len(counts.allocs))
	out.set("cir.instrs", mean(counts.instrs), "count", len(counts.instrs))
	out.set("cir.graph_us", st["cir.graph"].meanSelfUs(), "us", spanN(st, "cir.graph"))
	out.set("symexec.enum_ms", st["symexec.enum"].meanSelfUs()/1e3, "ms", spanN(st, "symexec.enum"))
	out.set("symexec.steps", mean(counts.steps), "count", len(counts.steps))
	out.set("symexec.paths", mean(counts.paths), "count", len(counts.paths))
	out.set("symexec.annotate_us", st["symexec.annotate"].meanSelfUs(), "us", spanN(st, "symexec.annotate"))
	if mapN > 0 {
		out.set("mapper.map_us", mapSum/float64(mapN), "us", mapN)
	}
	if counts.attempts > 0 {
		out.set("mapper.feasible_ratio", float64(counts.feasible)/float64(counts.attempts), "ratio", counts.attempts)
	}
	out.set("predict.us", st["predict"].meanSelfUs(), "us", spanN(st, "predict"))
	out.set("runner.parallel_eff", mean(counts.eff), "ratio", len(counts.eff))
	out.set("trace.overhead_pct", 100*(tracedMs-untracedMs)/untracedMs, "%", len(ops))
	out.set("trace.accounted_pct", 100*layerNs/1e6/tracedMs, "%", len(ops))
	for k, v := range loop {
		out.set(k, v, "%", 1)
	}
	out.spans, out.loop = spans, loop
	return nil
}

func spanN(st map[string]*spanStat, name string) int {
	if s := st[name]; s != nil {
		return s.n
	}
	return 0
}

// traceCompile takes source text to an enumerated NF: nfc.Compile,
// cir.BuildGraph, symexec.EnumerateContext.
func traceCompile(ctx context.Context, tr *tracer, root, req int, src string, usage *budget.Usage, counts *adviseCounts) (*tracedNF, error) {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	id := tr.begin("nfc.compile", root, req)
	prog, err := nfc.Compile(src)
	tr.end(id)
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return nil, err
	}
	counts.allocs = append(counts.allocs, float64(ms1.Mallocs-ms0.Mallocs))
	instrs := 0
	for _, b := range prog.Blocks {
		instrs += len(b.Instrs)
	}
	counts.instrs = append(counts.instrs, float64(instrs))

	id = tr.begin("cir.graph", root, req)
	g, err := cir.BuildGraph(prog)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	before := usage.Snapshot(budget.Limits{})
	id = tr.begin("symexec.enum", root, req)
	classes, err := symexec.EnumerateContext(ctx, prog)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	after := usage.Snapshot(budget.Limits{})
	counts.steps = append(counts.steps, float64(after.SymExecSteps-before.SymExecSteps))
	counts.paths = append(counts.paths, float64(after.SymExecPaths-before.SymExecPaths))
	return &tracedNF{prog: prog, graph: g, classes: classes, annotated: map[symexec.Weights]*cir.Graph{}}, nil
}

// traceAdviseCall is clara.AdviseContext on a traced NF: annotate the graph
// for the workload, then map and predict every target on the shared worker
// pool, and rank. It also returns the summed time of the per-target calls.
func traceAdviseCall(ctx context.Context, tr *tracer, root, req int, nf *tracedNF, wl clara.Workload, counts *adviseCounts) ([]clara.Advice, time.Duration) {
	w := symexec.WeightsFor(wl)
	g, ok := nf.annotated[w]
	if !ok {
		id := tr.begin("symexec.annotate", root, req)
		g = symexec.AnnotatedGraph(nf.graph, nf.classes, w)
		tr.end(id)
		nf.annotated[w] = g
	}
	names := lnic.ProfileNames()
	profiles := lnic.Profiles()
	targetNs := make([]time.Duration, len(names))
	fan := tr.begin("runner.map", root, req)
	advice, _ := runner.Map(ctx, 0, len(names), func(_ context.Context, i int) (clara.Advice, error) {
		name := names[i]
		ts := time.Now()
		defer func() { targetNs[i] = time.Since(ts) }()
		tid := tr.begin("target."+name, fan, req)
		defer tr.end(tid)
		t := profiles[name]()
		id := tr.begin("mapper.map."+name, tid, req)
		m, err := mapper.Map(g, t, wl, mapper.Hints{})
		tr.end(id)
		if err != nil {
			return clara.Advice{Target: name, Reason: err.Error()}, nil
		}
		id = tr.begin("predict", tid, req)
		pred, err := predict.PredictWithClasses(nf.prog, nf.classes, m, t, wl, predict.Options{})
		tr.end(id)
		if err != nil {
			return clara.Advice{Target: name, Reason: err.Error()}, nil
		}
		return clara.Advice{Target: name, Feasible: true, MeanCycles: pred.MeanCycles,
			MeanNanos: pred.MeanNanos, Throughput: pred.ThroughputPPS}, nil
	})
	tr.end(fan)
	var sum time.Duration
	for i, a := range advice {
		sum += targetNs[i]
		counts.attempts++
		if a.Feasible {
			counts.feasible++
		}
	}
	sort.Slice(advice, func(i, j int) bool {
		if advice[i].Feasible != advice[j].Feasible {
			return advice[i].Feasible
		}
		return advice[i].MeanNanos < advice[j].MeanNanos
	})
	return advice, sum
}

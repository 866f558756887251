// Command clara-sim executes an NF on the cycle-level SmartNIC simulator —
// the stand-in for benchmarking a manual port on real hardware ("Actual" in
// the paper's validation). It maps the NF first (optionally with hints) and
// replays a synthetic or pcap workload:
//
//	clara-sim -nf lpm.nf -target netronome -workload "packets=100000,rate=60000"
//
// -target accepts a comma-separated list; multiple targets are mapped and
// simulated concurrently (bounded by -parallel) against the same trace, and
// reports print in the order given.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof" // -pprof serves the default mux's profiling handlers
	"os"
	"sort"
	"strings"

	"clara"
	"clara/internal/cliutil"
	"clara/internal/runner"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "clara-sim:", err)
		os.Exit(1)
	}
}

// run carries the whole invocation so deferred cleanup — cancel and the
// -metrics flush — executes on every exit path, including errors and
// SIGINT/SIGTERM cancellation (partial metrics of an interrupted run still
// reach the -metrics destination).
func run() (err error) {
	var (
		nfPath      = flag.String("nf", "", "NF source file (required)")
		target      = flag.String("target", "netronome", "SmartNIC target(s), comma-separated: "+strings.Join(clara.Targets(), ", "))
		workloadStr = flag.String("workload", "", "traffic spec, e.g. packets=50000,rate=60000,flows=1000,size=300")
		pcapPath    = flag.String("pcap", "", "replay a pcap trace instead of synthesizing one")
		seed        = flag.Int64("seed", 11, "simulator seed")
		parallelN   = flag.Int("parallel", 0, "worker-pool width for multi-target runs (default GOMAXPROCS)")
		timeout     = flag.Duration("timeout", 0, cliutil.TimeoutFlagDoc)
		budgetSpec  = flag.String("budget", "", cliutil.BudgetFlagDoc)
		metricsSpec = flag.String("metrics", "", cliutil.MetricsFlagDoc)
		timelineOut = flag.String("timeline", "", "record the first target's per-packet timeline and write it here as Chrome trace_event JSON (load in chrome://tracing or Perfetto)")
		pprofAddr   = flag.String("pprof", "", "serve net/http/pprof on this address while running, e.g. localhost:6060")
		faultsSpec  = flag.String("faults", "", "fault injection, e.g. outage=crypto,degrade=checksum:4,queuecap=8,memfault=emem:0.001,corrupt=0.02,seed=7")
		shardWindow = flag.Int("shard-window", 0, "packets per simulation window (default: the whole trace; 16384 with -stream); simulator state restarts at every window boundary, so the window changes results, and windows run in parallel on all cores")
		stream      = flag.Bool("stream", false, "with -pcap and -workload: stream the capture window by window instead of loading it into memory (bounds ingestion memory by -shard-window)")
		noFlowCache = flag.Bool("no-flowcache", false, "hint: never use the flow cache")
		noCksum     = flag.Bool("no-cksum-accel", false, "hint: checksum in software")
		preload     preloadFlags
	)
	flag.Var(&preload, "preload", "pre-install entries into a state, e.g. -preload routes=20000 (repeatable)")
	flag.Parse()

	if *nfPath == "" {
		flag.Usage()
		return fmt.Errorf("-nf is required")
	}
	ctx, cancel, err := cliutil.Context(*timeout, *budgetSpec)
	if err != nil {
		return err
	}
	defer cancel()
	ctx, flushMetrics, err := cliutil.Metrics(ctx, *metricsSpec)
	if err != nil {
		return err
	}
	defer func() {
		if ferr := flushMetrics(); ferr != nil && err == nil {
			err = ferr
		}
	}()
	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "clara-sim: pprof:", err)
			}
		}()
	}
	faults, err := clara.ParseFaults(*faultsSpec)
	if err != nil {
		return err
	}
	nf, err := clara.LoadNF(*nfPath)
	if err != nil {
		return err
	}
	for k, v := range preload.m {
		nf.Preload[k] = v
	}
	targets := strings.Split(*target, ",")
	for i := range targets {
		targets[i] = strings.TrimSpace(targets[i])
	}

	var tr *clara.Trace
	var wl clara.Workload
	if *stream {
		// Streaming never materializes the capture, so the mapping workload
		// must come from the -workload spec instead of trace statistics.
		if *pcapPath == "" || *workloadStr == "" {
			return fmt.Errorf("-stream requires both -pcap (the capture to stream) and -workload (the traffic expectations for mapping)")
		}
		if wl, err = clara.ParseWorkload(*workloadStr); err != nil {
			return err
		}
	} else if *pcapPath != "" {
		f, err := os.Open(*pcapPath)
		if err != nil {
			return err
		}
		wl, tr, err = clara.WorkloadFromPcapContext(ctx, f)
		f.Close()
		if err != nil {
			return err
		}
	} else {
		prof, err := clara.ParseTrafficProfile(*workloadStr)
		if err != nil {
			return err
		}
		tr, err = clara.GenerateTraceContext(ctx, prof)
		if err != nil {
			return err
		}
		wl, err = clara.ParseWorkload(*workloadStr)
		if err != nil {
			return err
		}
	}

	hints := clara.Hints{DisableFlowCache: *noFlowCache, DisableChecksumAccel: *noCksum}
	// Targets share the NF and the trace; both are safe to read concurrently
	// (the analysis pipeline is re-entrant and the simulator never writes the
	// trace), so each worker only needs its own mapping + simulator run. The
	// timeline is recorded on the first target only: it is a per-run drill-down
	// view, and one file holds one run.
	job := simJob{
		wl: wl, tr: tr, hints: hints, seed: *seed, faults: faults,
		shardWindow: *shardWindow,
	}
	if *stream {
		job.streamPcap = *pcapPath
	}
	reports, err := runner.Map(ctx, *parallelN, len(targets),
		func(cctx context.Context, i int) (simOut, error) {
			j := job
			j.timeline = *timelineOut != "" && i == 0
			return simulate(cctx, nf, targets[i], j)
		})
	if err != nil {
		return err
	}
	for _, rep := range reports {
		fmt.Print(rep.report)
	}
	if *timelineOut != "" {
		f, err := os.Create(*timelineOut)
		if err != nil {
			return err
		}
		if err := reports[0].timeline.WriteChromeTrace(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote timeline for %s to %s (%d hops)\n",
			targets[0], *timelineOut, len(reports[0].timeline.Hops))
	}
	return nil
}

// simOut is one target's rendered report plus its optional timeline.
type simOut struct {
	report   string
	timeline *clara.Timeline
}

// simJob carries one target run's shared inputs. With streamPcap set, the
// trace is streamed from that file window by window instead of being read
// from tr; each target opens its own reader, since a TraceReader
// is single-use.
type simJob struct {
	wl          clara.Workload
	tr          *clara.Trace
	hints       clara.Hints
	seed        int64
	faults      *clara.Faults
	timeline    bool
	shardWindow int
	streamPcap  string
}

// simulate maps and runs the NF on one target, returning the rendered report.
func simulate(ctx context.Context, nf *clara.NF, target string, j simJob) (simOut, error) {
	t, err := clara.NewTarget(target)
	if err != nil {
		return simOut{}, err
	}
	m, err := nf.MapContext(ctx, t, j.wl, j.hints)
	if err != nil {
		return simOut{}, err
	}
	opts := clara.MeasureOptions{
		Faults: j.faults, Timeline: j.timeline, ShardWindow: j.shardWindow,
	}
	var res *clara.Measurement
	if j.streamPcap != "" {
		f, err := os.Open(j.streamPcap)
		if err != nil {
			return simOut{}, err
		}
		defer f.Close()
		src, err := clara.NewTraceReader(f, j.streamPcap)
		if err != nil {
			return simOut{}, err
		}
		res, err = nf.MeasureStreamContext(ctx, t, m, src, j.seed, opts)
		if err != nil {
			return simOut{}, err
		}
	} else {
		res, err = nf.MeasureOptionsContext(ctx, t, m, j.tr, j.seed, opts)
		if err != nil {
			return simOut{}, err
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "simulated %s on %s: %d packets\n", nf.Name(), t.Name, len(res.Packets))
	fmt.Fprintf(&b, "  mean latency: %.0f cycles (%.0f ns)\n", res.MeanLatency(), t.CyclesToNanos(res.MeanLatency()))
	fmt.Fprintf(&b, "  p50 / p99:    %.0f / %.0f cycles\n", res.Percentile(50), res.Percentile(99))
	bd := res.MeanBreakdown()
	fmt.Fprintf(&b, "  breakdown:    compute=%.0f mem=%.0f accel=%.0f queue=%.0f fixed=%.0f\n",
		bd.Compute, bd.Mem, bd.Accel, bd.Queue, bd.Fixed)
	byClass := res.MeanLatencyByClass()
	classes := make([]string, 0, len(byClass))
	for c := range byClass {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		fmt.Fprintf(&b, "  class %-8s %.0f cycles\n", c, byClass[c])
	}
	regions := make([]string, 0, len(res.CacheHitRate))
	for r := range res.CacheHitRate {
		regions = append(regions, r)
	}
	sort.Strings(regions)
	for _, r := range regions {
		fmt.Fprintf(&b, "  %s cache hit rate: %.1f%%\n", r, res.CacheHitRate[r]*100)
	}
	if res.FlowCacheHitRate == res.FlowCacheHitRate { // not NaN
		fmt.Fprintf(&b, "  flow cache hit rate: %.1f%%\n", res.FlowCacheHitRate*100)
	}
	var drops int
	for i := range res.Packets {
		if res.Packets[i].Verdict != 0 {
			drops++
		}
	}
	fmt.Fprintf(&b, "  verdicts: %d pass, %d drop\n", len(res.Packets)-drops, drops)
	if res.Faults.Any() {
		fmt.Fprintf(&b, "  faults:   %s\n", res.Faults.String())
	}
	return simOut{report: b.String(), timeline: res.Timeline}, nil
}

type preloadFlags struct{ m map[string]int }

func (p *preloadFlags) String() string { return fmt.Sprint(p.m) }

func (p *preloadFlags) Set(v string) error {
	parts := strings.SplitN(v, "=", 2)
	if len(parts) != 2 {
		return fmt.Errorf("want state=entries, got %q", v)
	}
	var n int
	if _, err := fmt.Sscanf(parts[1], "%d", &n); err != nil {
		return err
	}
	if p.m == nil {
		p.m = map[string]int{}
	}
	p.m[parts[0]] = n
	return nil
}

package nicsim

import (
	"context"
	"errors"
	"io"
	"math"
	"sync"

	"clara/internal/budget"
	"clara/internal/obs"
	"clara/internal/runner"
	"clara/internal/workload"
)

// This file is the sharded simulation engine: it splits a trace into
// fixed-size contiguous windows, simulates every window on an independent
// simulator instance with deterministically derived RNG streams, and merges
// the per-window Results in trace-index order.
//
// The load-bearing design decision is that the window decomposition depends
// only on the trace length and the window size — never on the worker count.
// Workers are pure scheduling: ShardOpts{Workers: 1} and {Workers: 8} run
// the exact same shards with the exact same seeds and merge them in the
// exact same order, so Results are reflect.DeepEqual across any worker
// count on a fixed seed (the shard-invariance suite enforces this).
//
// Each shard gets a fresh Sim: state tables, caches, queue occupancies and
// thread bookings restart cold at the window boundary. State *contents*
// (LPM rules, array preloads) are seeded identically across shards via
// Config.StateSeed, so every shard routes against the same tables; only the
// runtime streams (base RNG behind vc_random, fault RNG) are per-shard,
// derived from the run seed and the shard index through splitmix64 — never
// additive offsets, which would alias across seeds. Shard 0 keeps the base
// seed unchanged, so a single-window sharded run is bit-identical to the
// classic unsharded RunContext.

// DefaultShardWindow is the streamed engine's default packets-per-shard
// window, and the window to pass for a parallel in-memory run. It trades
// shard-setup amortization (state preloading runs once per shard) against
// parallelism granularity and, in streaming mode, peak ingestion memory.
const DefaultShardWindow = 16384

// ShardOpts configures a sharded run.
type ShardOpts struct {
	// Workers is the parallel worker count; values < 1 select GOMAXPROCS.
	// Workers never affects results, only wall-clock time.
	Workers int
	// Window is the packets-per-shard window. Values < 1 select the whole
	// input for an in-memory run (one window: the classic loop) and
	// DefaultShardWindow for a streamed one. Changing the window changes
	// where per-shard state restarts, and therefore the results.
	Window int
}

// window resolves the packets-per-shard window, falling back to whole
// (never below 1) when opts leave it unset.
func (o ShardOpts) window(whole int) int {
	switch {
	case o.Window >= 1:
		return o.Window
	case whole >= 1:
		return whole
	}
	return 1
}

// shardSeed derives shard w's stream seed from the run seed. Shard 0 is the
// base stream itself — a one-window run degenerates to the classic loop —
// and later shards land on splitmix64-decorrelated streams.
func shardSeed(seed int64, w int) int64 {
	if w == 0 {
		return seed
	}
	return int64(mix64(uint64(seed) + 0x9E3779B97F4A7C15*uint64(w)))
}

// shardConfig builds shard w's simulator configuration: per-shard base and
// fault streams, shared state contents.
func shardConfig(cfg Config, w int) Config {
	sc := cfg
	st := cfg.StateSeed
	if st == 0 {
		st = cfg.Seed
	}
	if st == 0 {
		// Literal seed 0 cannot ride the StateSeed zero sentinel (it would
		// resolve to the shard's derived stream seed and fork the tables);
		// any fixed substitute keeps every shard's tables identical.
		st = 0x5eed
	}
	sc.StateSeed = st
	sc.Seed = shardSeed(cfg.Seed, w)
	if cfg.Faults != nil {
		f := *cfg.Faults
		fs := f.Seed
		if fs == 0 {
			fs = cfg.Seed
		}
		f.Seed = shardSeed(fs, w)
		sc.Faults = &f
	}
	return sc
}

// shardRun is one window's outcome plus the raw cache counters the merge
// needs: hit *rates* cannot be merged, only hit/access counts can.
type shardRun struct {
	res *Result
	err error
	// cacheHits/cacheTotal are per-region-name counters; fcHits/fcTotal the
	// flow-cache accelerator's (fcPresent false when the NIC has none).
	cacheHits, cacheTotal map[string]uint64
	fcHits, fcTotal       uint64
	fcPresent             bool
}

// runShard builds (or recycles from pool) shard w's simulator and runs
// tr.Packets[lo:hi] attributed to global indices base+lo..base+hi.
func runShard(ctx context.Context, cfg Config, tr *workload.Trace, base, lo, hi, w int, pool *simPool) shardRun {
	sim, err := pool.get(ctx, shardConfig(cfg, w))
	if err != nil {
		return shardRun{err: err}
	}
	obs.From(ctx).Counter("clara_sim_shards_total").Add(1)
	res, err := sim.runRange(ctx, tr, base, lo, hi)
	sr := shardRun{res: res, err: err}
	captureCounters(sim, &sr)
	pool.put(sim)
	return sr
}

// RunShardedContext simulates tr through cfg's NF across opts.Workers
// parallel shards of opts.Window packets each and returns the merged Result,
// ordered by trace index. On a fixed seed the Result is invariant across
// worker counts; a trace that fits one window — by default the whole trace
// is one — runs the classic unsharded loop and is bit-identical to
// (&Sim).RunContext.
//
// Budget and cancellation semantics match RunContext: the SimEvents cap
// applies to global trace indices and trips in whichever shard holds the
// boundary (shards past it are never dispatched), the per-packet SimSteps
// cap trips deterministically inside a shard, and the returned
// *budget.ExceededError / *budget.CanceledError carries the merged Result
// covering the contiguous prefix of packets that completed. Budget-tripped
// outcomes are deterministic across worker counts; genuinely asynchronous
// cancellation is inherently timing-dependent, exactly as it is unsharded.
func RunShardedContext(ctx context.Context, cfg Config, tr *workload.Trace, opts ShardOpts) (*Result, error) {
	n := len(tr.Packets)
	window := opts.window(n)
	if n <= window {
		sim, err := NewContext(ctx, cfg)
		if err != nil {
			return nil, err
		}
		return sim.RunContext(ctx, tr)
	}
	windows := (n + window - 1) / window
	// Don't dispatch shards wholly past the SimEvents cap: the first shard
	// at or beyond the boundary raises the trip (with the prefix merged into
	// Partial), so later windows could only ever be discarded.
	dispatch := windows
	if lim := budget.From(ctx); lim.SimEvents > 0 && lim.SimEvents < int64(n) {
		dispatch = int(lim.SimEvents/int64(window)) + 1
		if dispatch > windows {
			dispatch = windows
		}
	}
	pool := &simPool{}
	runs, _ := runner.Map(ctx, opts.Workers, dispatch,
		func(cctx context.Context, w int) (shardRun, error) {
			lo := w * window
			hi := lo + window
			if hi > n {
				hi = n
			}
			// Errors stay inside the shardRun: the merge resolves the
			// winning error by shard index, deterministically, rather than
			// by whichever worker failed first on the clock.
			return runShard(cctx, cfg, tr, 0, lo, hi, w, pool), nil
		})
	return mergeShards(ctx, cfg, runs)
}

// WindowSource yields successive contiguous windows of one logical trace:
// NextWindow returns up to max packets and the global trace index of the
// window's first packet, then io.EOF once the stream is exhausted. A
// returned window may accompany a non-nil error (e.g. a budget trip after a
// partial window); callers should process the window, then handle the error.
// workload.TraceReader is the pcap-backed implementation.
type WindowSource interface {
	NextWindow(ctx context.Context, max int) (win *workload.Trace, start int, err error)
}

// RunShardedStreamContext is RunShardedContext over a streamed trace: shards
// are read window by window from src and simulated as they arrive, so peak
// ingestion memory is bounded by roughly Workers+1 windows of wire bytes and
// decoded frames rather than the trace length (the merged Result still
// accumulates one PacketResult per packet). Window w of the stream is shard
// w: on identical packets, a streamed run merges to exactly the same Result
// as an in-memory RunShardedContext with the same window size. Its default
// window is DefaultShardWindow, not the whole trace, since the window bounds
// ingestion memory.
//
// A reader error ends production; shards already in flight finish and the
// error is returned re-wrapped with the merged prefix Result as its Partial
// (budget trips during ingestion report resource "trace-packets", matching
// workload.ReadPcapContext).
func RunShardedStreamContext(ctx context.Context, cfg Config, src WindowSource, opts ShardOpts) (*Result, error) {
	window := opts.window(DefaultShardWindow)
	workers := runner.Parallelism(opts.Workers)

	type job struct {
		w, base int
		tr      *workload.Trace
	}
	jobs := make(chan job)
	var (
		mu   sync.Mutex
		runs []shardRun
	)
	record := func(w int, sr shardRun) {
		mu.Lock()
		for len(runs) <= w {
			runs = append(runs, shardRun{})
		}
		runs[w] = sr
		mu.Unlock()
	}
	// stop tells the producer a shard already failed: everything past the
	// lowest failed index is discarded by the merge, so reading further
	// windows is pure waste. In-flight shards still drain.
	stop := make(chan struct{})
	var stopOnce sync.Once
	var wg sync.WaitGroup
	pool := &simPool{}
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				sr := runShard(ctx, cfg, j.tr, j.base, 0, len(j.tr.Packets), j.w, pool)
				record(j.w, sr)
				if sr.err != nil {
					stopOnce.Do(func() { close(stop) })
				}
			}
		}()
	}

	var readerErr error
	produced := 0
produce:
	for {
		select {
		case <-stop:
			break produce
		default:
		}
		if err := ctx.Err(); err != nil {
			break
		}
		win, start, err := src.NextWindow(ctx, window)
		if win != nil && len(win.Packets) > 0 {
			// The window's packets carry global indices start..start+len-1;
			// its own slice indices restart at 0, hence base = start.
			jobs <- job{w: produced, base: start, tr: win}
			produced++
		}
		if err != nil {
			if err != io.EOF {
				readerErr = err
			}
			break
		}
	}
	close(jobs)
	wg.Wait()
	for len(runs) < produced {
		runs = append(runs, shardRun{})
	}
	res, err := mergeShards(ctx, cfg, runs[:produced])
	if err != nil {
		return nil, err
	}
	if readerErr != nil {
		return nil, rewrapPartial(readerErr, res)
	}
	return res, nil
}

// mergeShards folds per-shard outcomes into one Result in shard (= trace
// index) order. It never copies a Result by value — Result embeds a
// sync.Once-guarded statistics cache whose copy `go vet` rejects and whose
// reuse would poison merged percentiles — and it recomputes aggregate rates
// from summed hit/access counts rather than averaging per-shard rates.
//
// The first shard (by index) that errored decides the merged outcome: its
// typed budget/cancel error is re-issued with the merged contiguous prefix
// as Partial, and later shards' results are discarded — the same packets a
// sequential run of the shards would have produced.
func mergeShards(ctx context.Context, cfg Config, runs []shardRun) (*Result, error) {
	merged := &Result{NFName: cfg.Prog.Name, CacheHitRate: map[string]float64{}}
	// Size the packet slice once for the windows the loop below absorbs:
	// finished windows up to the first erroring or skipped one, plus an
	// erroring window's partial prefix. It stays nil when there are no
	// packets: reflect.DeepEqual tells nil from empty.
	n := 0
	for _, sr := range runs {
		if sr.err != nil {
			if r := partialResult(sr.err); r != nil {
				n += len(r.Packets)
			}
			break
		}
		if sr.res == nil {
			break
		}
		n += len(sr.res.Packets)
	}
	if n > 0 {
		merged.Packets = make([]PacketResult, 0, n)
	}
	if cfg.Timeline {
		merged.Timeline = &Timeline{NF: cfg.Prog.Name, NIC: cfg.NIC.Name, ClockGHz: cfg.NIC.ClockGHz}
	}
	hits := map[string]uint64{}
	total := map[string]uint64{}
	var fcHits, fcTotal uint64
	fcPresent := false

	seal := func() *Result {
		for name, tot := range total {
			if tot > 0 {
				merged.CacheHitRate[name] = float64(hits[name]) / float64(tot)
			} else {
				merged.CacheHitRate[name] = 0
			}
		}
		switch {
		case !fcPresent:
			merged.FlowCacheHitRate = math.NaN()
		case fcTotal > 0:
			merged.FlowCacheHitRate = float64(fcHits) / float64(fcTotal)
		default:
			merged.FlowCacheHitRate = 0
		}
		return merged
	}
	absorb := func(r *Result, sr shardRun) {
		merged.Packets = append(merged.Packets, r.Packets...)
		merged.Errors += r.Errors
		mergeFaultReports(&merged.Faults, &r.Faults)
		if r.Contention != nil {
			if merged.Contention == nil {
				merged.Contention = &ContentionReport{}
			}
			mergeContention(merged.Contention, r.Contention)
		}
		if merged.Timeline != nil && r.Timeline != nil {
			merged.Timeline.Hops = append(merged.Timeline.Hops, r.Timeline.Hops...)
		}
		for name, h := range sr.cacheHits {
			hits[name] += h
		}
		for name, t := range sr.cacheTotal {
			total[name] += t
		}
		fcHits += sr.fcHits
		fcTotal += sr.fcTotal
		fcPresent = fcPresent || sr.fcPresent
	}

	for _, sr := range runs {
		if sr.err != nil {
			if r := partialResult(sr.err); r != nil {
				absorb(r, sr)
			}
			return nil, rewrapPartial(sr.err, seal())
		}
		if sr.res == nil {
			// The runner skipped this window: the parent context was
			// cancelled before it was claimed.
			err := ctx.Err()
			if err == nil {
				err = context.Canceled
			}
			return nil, &budget.CanceledError{
				Stage: "simulate", NF: cfg.Prog.Name, Err: err, Partial: seal(),
			}
		}
		absorb(sr.res, sr)
	}
	return seal(), nil
}

// mergeFaultReports adds src into dst, allocating dst's maps only when src
// actually recorded that fault kind — so an all-healthy merge keeps the same
// nil maps a single healthy run reports.
func mergeFaultReports(dst, src *FaultReport) {
	dst.Dropped += src.Dropped
	dst.Corrupted += src.Corrupted
	dst.FaultedPackets += src.FaultedPackets
	for class, n := range src.AccelFallbacks {
		if dst.AccelFallbacks == nil {
			dst.AccelFallbacks = map[string]int{}
		}
		dst.AccelFallbacks[class] += n
	}
	for region, n := range src.MemFaults {
		if dst.MemFaults == nil {
			dst.MemFaults = map[string]int{}
		}
		dst.MemFaults[region] += n
	}
	for class, c := range src.DegradeCycles {
		if dst.DegradeCycles == nil {
			dst.DegradeCycles = map[string]float64{}
		}
		dst.DegradeCycles[class] += c
	}
}

// mergeContention adds src's raw contention counts into dst. Like the cache
// hit rate, stall *rates* could not be merged — only raw wait counts and
// cycle sums can, which is why ContentionReport carries sums exclusively.
// Maps allocate only when src recorded contention on that axis, so a
// contention-free merge preserves nil maps.
func mergeContention(dst, src *ContentionReport) {
	dst.StallCycles += src.StallCycles
	for res, n := range src.Waits {
		if dst.Waits == nil {
			dst.Waits = map[string]uint64{}
		}
		dst.Waits[res] += n
	}
	for res, c := range src.WaitCycles {
		if dst.WaitCycles == nil {
			dst.WaitCycles = map[string]float64{}
		}
		dst.WaitCycles[res] += c
	}
}

// partialResult extracts the *Result a typed budget/cancel error carries.
func partialResult(err error) *Result {
	var ee *budget.ExceededError
	if errors.As(err, &ee) {
		if r, ok := ee.Partial.(*Result); ok {
			return r
		}
	}
	var ce *budget.CanceledError
	if errors.As(err, &ce) {
		if r, ok := ce.Partial.(*Result); ok {
			return r
		}
	}
	return nil
}

// rewrapPartial re-issues a typed budget/cancel error with partial as its
// Partial: the merged prefix of a sharded run, or the per-tenant slice of a
// co-located one. Untyped errors (simulator construction failures, raw
// reader I/O errors) pass through unchanged.
func rewrapPartial(err error, partial any) error {
	var ee *budget.ExceededError
	if errors.As(err, &ee) {
		return &budget.ExceededError{
			Resource: ee.Resource, Limit: ee.Limit,
			Stage: ee.Stage, NF: ee.NF, Partial: partial,
		}
	}
	var ce *budget.CanceledError
	if errors.As(err, &ce) {
		return &budget.CanceledError{
			Stage: ce.Stage, NF: ce.NF, Err: ce.Err, Partial: partial,
		}
	}
	return err
}

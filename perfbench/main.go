// Command perfbench is Clara's repository benchmark. It drives one of three
// seeded workloads in process through Clara's public entry points, checks
// every output it gets back, and prints the end-to-end metrics; with
// -trace 1 it instead feeds the same inputs through each layer's public
// functions from its own files, recording spans, counts and a CPU profile,
// and prints the per-layer metrics. An untraced closed-loop run measures in
// a few processes of its own, one after another (see parts.go).
//
// Workloads (the layers each one loads are listed in BENCHMARK.json):
//
//	advise    closed loop, one caller: never-seen NF sources compiled and
//	          advised cold, then advised warm under new workload specs
//	simulate  closed loop, one caller: solo and co-located simulator runs of
//	          small- and large-footprint traces
//	serve     open loop, seeded Poisson arrivals: an in-process clara-serve
//	          handler answering a Zipf-popular mix of /v1 requests
//
// Usage, from the root of a checkout (run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload advise --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The lines before it describe the
// host and every metric by name, unit and sample count. Traced runs also
// write their spans and profile split under .bench_build/traces/.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// heldOutSeed is never used while tuning the benchmark, so a claimed change
// can be re-checked on inputs nobody tuned against.
const heldOutSeed = 424242

// setupReps is how many times a process sets its workload up before it
// measures. A set-up is a list of pieces (one per input it prepares), timed
// one by one, and a run's setup_s is the sum over the pieces of each piece's
// fastest time in any of the run's set-ups. A whole set-up is a sum of many
// calls, and on a shared host its median over a run moves by a third between
// runs; the fastest time of each piece holds all of the set-up's work but
// rides on the host's quiet moments, as the call-time quantiles do.
const setupReps = 5

type metricVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricVal `json:"metrics"`
}

// runConfig is what every workload gets from the command line.
type runConfig struct {
	workload string
	seed     int64
	dur      time.Duration
	traced   bool
	// serveRate is the serve workload's offered load in requests per second.
	serveRate float64
	// part is the index of a closed-loop run's measuring process, or -1 in
	// the process the run was started as.
	part int
}

// outcome is one workload run: operation counts plus named metrics and the
// sample count behind each.
type outcome struct {
	attempted, failed int
	metrics           map[string]metricVal
	samples           map[string]int
	spans             []span
	loop              map[string]float64
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]metricVal{}, samples: map[string]int{}}
}

func (o *outcome) set(name string, v float64, unit string, n int) {
	o.metrics[name] = metricVal{Value: v, Unit: unit}
	o.samples[name] = n
}

// endToEnd names the metrics of an untraced run. Each workload defines them
// for its own operations: the typical and the tail latency of a primary and
// of an alternate class of timed operation, and the work done per second.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"max_rss_mb", "MB"},
	{"typical_ms", "ms"},
	{"tail_ms", "ms"},
	{"alt_typical_ms", "ms"},
	{"alt_tail_ms", "ms"},
	{"rate_per_s", "1/s"},
}

// perLayer names the metrics of a traced run. A layer that does no work in
// a workload reports 0 there.
var perLayer = []struct{ name, unit string }{
	{"nfc.compile_us", "us"}, {"nfc.allocs", "count"}, {"cir.instrs", "count"},
	{"cir.graph_us", "us"},
	{"symexec.enum_ms", "ms"}, {"symexec.steps", "count"}, {"symexec.paths", "count"},
	{"symexec.annotate_us", "us"},
	{"mapper.map_us", "us"}, {"mapper.map_us.netronome", "us"}, {"mapper.map_us.armsoc", "us"},
	{"mapper.map_us.pipeline-asic", "us"}, {"mapper.feasible_ratio", "ratio"},
	{"predict.us", "us"}, {"predict.colocated_us", "us"}, {"pred_err_pct", "%"},
	{"runner.parallel_eff", "ratio"},
	{"workload.gen_us_per_kpkt", "us"}, {"workload.decode_us_per_kpkt", "us"},
	{"nicsim.new_us", "us"}, {"nicsim.run_ns_per_pkt", "ns"}, {"nicsim.coloc_ns_per_pkt", "ns"},
	{"nicsim.allocs_per_run", "count"}, {"nicsim.steps_per_pkt", "count"},
	{"nicsim.events_per_pkt", "count"},
	{"sim.cycles_per_pkt", "cycles"}, {"sim.bd.compute", "cycles"}, {"sim.bd.mem", "cycles"},
	{"sim.bd.accel", "cycles"}, {"sim.bd.queue", "cycles"}, {"sim.bd.fixed", "cycles"},
	{"sim.cache_hit.emem", "ratio"}, {"sim.cache_hit.dram", "ratio"},
	{"sim.flowcache_hit", "ratio"}, {"sim.stall_cycles", "cycles"},
	{"loop.dispatch_pct", "%"}, {"loop.vcall_pct", "%"}, {"loop.state_pct", "%"},
	{"loop.oninstr_pct", "%"}, {"loop.threadheap_pct", "%"}, {"loop.hub_pct", "%"},
	{"loop.cache_pct", "%"}, {"go.gc_pct", "%"},
	{"serve.hit_p50_us", "us"}, {"serve.miss_p50_ms", "ms"}, {"serve.result_hit_ratio", "ratio"},
	{"serve.nf_hit_ratio", "ratio"}, {"serve.computations", "count"}, {"serve.shared", "count"},
	{"serve.evictions", "count"},
	{"jobs.complete_p50_ms", "ms"}, {"jobs.attempts_per_job", "count"},
	{"driver.late_p99_ms", "ms"}, {"trace.overhead_pct", "%"}, {"trace.accounted_pct", "%"},
}

var workloads = map[string]func(runConfig) (*outcome, error){
	"advise":   runAdvise,
	"simulate": runSimulate,
	"serve":    runServe,
}

func main() {
	wl := flag.String("workload", "", "workload: advise, simulate or serve")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 for the traced per-layer run")
	rate := flag.Float64("serve-rate", defaultServeRate, "serve workload: offered requests per second")
	part := flag.Int("part", -1, "run as measuring process N of a closed-loop run (started by the run itself)")
	flag.Parse()
	run, ok := workloads[*wl]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || *rate <= 0 {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload advise|simulate|serve --seed N --seconds N --trace 0|1")
		os.Exit(2)
	}
	cfg := runConfig{workload: *wl, seed: *seed, dur: time.Duration(*seconds) * time.Second, traced: *trace == 1,
		serveRate: *rate, part: *part}
	if cfg.part >= 0 {
		if err := runPart(cfg); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	out, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := emit(cfg, out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// emit prints the host block and every metric, writes a traced run's spans,
// and ends with the result line.
func emit(cfg runConfig, out *outcome) error {
	names := endToEnd
	if cfg.traced {
		names = perLayer
	} else if _, ok := out.metrics["max_rss_mb"]; !ok {
		out.set("max_rss_mb", maxRSSMB(), "MB", 1)
	}
	host := map[string]any{
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"cpu": cpuModel(), "os": runtime.GOOS + "/" + runtime.GOARCH,
		"workload": cfg.workload, "seed": cfg.seed, "held_out_seed": heldOutSeed,
		"seconds": cfg.dur.Seconds(), "traced": cfg.traced, "samples": out.samples,
	}
	hb, err := json.Marshal(host)
	if err != nil {
		return err
	}
	fmt.Printf("# host %s\n", hb)
	res := result{Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metricVal{}}
	res.Correct = out.failed == 0 && out.attempted > 0
	for _, m := range names {
		v, ok := out.metrics[m.name]
		if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			if !cfg.traced {
				// An end-to-end metric the run could not measure makes the
				// run incorrect rather than reporting a made-up number.
				res.Correct = false
			}
			v = metricVal{Value: 0, Unit: m.unit}
		}
		v.Unit = m.unit
		res.Metrics[m.name] = v
	}
	// Every metric the run measured, including workload-specific ones that
	// are not part of the result line.
	keys := make([]string, 0, len(out.metrics))
	for k := range out.metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("# metric %-32s %14.6g %-6s n=%d\n", k, out.metrics[k].Value, out.metrics[k].Unit, out.samples[k])
	}
	errRate := 0.0
	if out.attempted > 0 {
		errRate = float64(out.failed) / float64(out.attempted)
	}
	fmt.Printf("# metric %-32s %14.6g %-6s n=%d\n", "error_rate", errRate, "frac", out.attempted)
	if cfg.traced {
		if err := writeTrace(cfg, hb, out); err != nil {
			return err
		}
	}
	rb, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(rb))
	return nil
}

// writeTrace stores a traced run's spans and profile split inside the
// checkout's build directory.
func writeTrace(cfg runConfig, host []byte, out *outcome) error {
	dir := filepath.Join(".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	body, err := json.Marshal(map[string]any{
		"host": json.RawMessage(host), "spans": out.spans, "loop": out.loop,
	})
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
	if err := os.WriteFile(path, body, 0o644); err != nil {
		return err
	}
	fmt.Printf("# spans %d written to %s\n", len(out.spans), path)
	return nil
}

// maxRSSMB is the process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// processStart is taken while the package initializes, as close to process
// start as Go code gets.
var processStart = time.Now()

// cpuSeconds is the user and system CPU time the process has used.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// timedSetups sets a workload up setupReps times in a row and returns the
// last set-up's result, every set-up's piece times, and the time from
// process start to the end of the last set-up. Each earlier result is handed
// to release (when not nil) and dropped before the next set-up starts, so
// peak memory and live goroutines hold one set-up. Set-ups after the first
// run with the heap grown and process-wide memos filled, as a long-running
// process would.
func timedSetups[T any](setup func() (T, []float64, error), release func(T)) (T, [][]float64, float64, error) {
	var last T
	var reps [][]float64
	for i := 0; i < setupReps; i++ {
		if i > 0 && release != nil {
			release(last)
		}
		var zero T
		last = zero
		runtime.GC()
		v, pieces, err := setup()
		if err != nil {
			return last, nil, 0, err
		}
		last = v
		reps = append(reps, pieces)
	}
	return last, reps, time.Since(processStart).Seconds(), nil
}

// setupFloor is the sum over pieces of each piece's fastest time in any
// set-up. Set-ups of one run draw the same pieces; a piece missing from a
// set-up counts only where it was timed.
func setupFloor(reps [][]float64) float64 {
	var fastest []float64
	for _, pieces := range reps {
		for i, p := range pieces {
			if i == len(fastest) {
				fastest = append(fastest, p)
			}
			fastest[i] = math.Min(fastest[i], p)
		}
	}
	total := 0.0
	for _, p := range fastest {
		total += p
	}
	return total
}

// setSetup records a run's set-up metrics from all its set-ups' piece times
// and each process's time from start to its first timed call: setup_s is
// their setupFloor, and the median whole set-up and the median time from
// process start are printed beside it.
func setSetup(out *outcome, reps [][]float64, since []float64) {
	out.set("setup_s", setupFloor(reps), "s", len(reps))
	var totals []float64
	for _, pieces := range reps {
		total := 0.0
		for _, p := range pieces {
			total += p
		}
		totals = append(totals, total)
	}
	out.set("setup_median_s", percentile(totals, 50), "s", len(totals))
	out.set("setup_process_s", percentile(since, 50), "s", len(since))
}

// seedFor derives a sub-seed for one input of a run, so inputs drawn lazily
// do not depend on how many came before them. The stream name is hashed
// first and each further part goes through a bijective mix, so neighbouring
// indices of streams whose names differ in a few bits do not collide.
func seedFor(seed int64, stream string, i int) int64 {
	h := uint64(0xCBF29CE484222325)
	for _, c := range []byte(stream) {
		h = (h ^ uint64(c)) * 0x100000001B3
	}
	h = mix64(mix64(h^uint64(seed)) ^ uint64(i))
	return int64(h >> 1)
}

// mix64 is the SplitMix64 finalizer, a bijection on 64-bit words.
func mix64(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 27
	h *= 0x94D049BB133111EB
	return h ^ h>>31
}

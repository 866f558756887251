package clara

import (
	"context"
	"os"
	"runtime"
	"testing"

	"clara/internal/budget"
	"clara/internal/lnic"
	"clara/internal/microbench"
	"clara/internal/nicsim"
	"clara/internal/workload"
)

const (
	// scalingPackets sizes the throughput probe both scaling tests use.
	scalingPackets = 200000
	// minShardSpeedup is the 2-worker speedup floor over 1 worker.
	minShardSpeedup = 1.8
)

// TestShardWindowsSplitEvenly is the deterministic half of the sharded
// engine's scaling claim, checked in every run: the throughput probe's
// trace splits into windows that carry equal simulated work (packets and
// CIR steps), so handing them out in index order to two workers, as the
// windowed engine's driver does, finishes in at most 1/minShardSpeedup of
// the serial work. Whether the host then delivers that speedup in
// wall-clock time is TestShardScaling's question.
func TestShardWindowsSplitEvenly(t *testing.T) {
	ctx := context.Background()
	probe, err := microbench.NewThroughputProbe(ctx, lnic.Netronome(), scalingPackets)
	if err != nil {
		t.Fatal(err)
	}
	n, window := len(probe.Trace.Packets), probe.Window
	if n <= window {
		t.Fatalf("%d packets fit one %d-packet window: the probe would not shard", n, window)
	}
	var work []int64
	for lo := 0; lo < n; lo += window {
		hi := min(lo+window, n)
		sim, err := nicsim.NewContext(context.Background(), probe.Config)
		if err != nil {
			t.Fatal(err)
		}
		usage := &budget.Usage{}
		res, err := sim.RunContext(budget.WithUsage(ctx, usage),
			&workload.Trace{Packets: probe.Trace.Packets[lo:hi]})
		if err != nil {
			t.Fatal(err)
		}
		if res.Errors > 0 {
			t.Fatalf("window at %d: %d execution errors", lo, res.Errors)
		}
		work = append(work, usage.Snapshot(budget.Limits{}).SimSteps)
	}
	lo, hi, total := work[0], work[0], int64(0)
	for _, w := range work {
		lo, hi, total = min(lo, w), max(hi, w), total+w
	}
	if float64(hi) > 1.05*float64(lo) {
		t.Errorf("window work ranges %d..%d steps: windows do not split the work evenly", lo, hi)
	}
	// Two workers, each taking the next window as soon as it is free.
	var busy [2]int64
	for _, w := range work {
		if busy[1] < busy[0] {
			busy[1] += w
		} else {
			busy[0] += w
		}
	}
	speedup := float64(total) / float64(max(busy[0], busy[1]))
	t.Logf("%d windows of %d..%d steps: ideal 2-worker speedup %.2fx", len(work), lo, hi, speedup)
	if speedup < minShardSpeedup {
		t.Errorf("ideal 2-worker speedup %.2fx, want >= %.2fx", speedup, minShardSpeedup)
	}
}

// TestShardScaling asserts the sharded simulator buys wall-clock time: 2
// workers must reach at least minShardSpeedup times the 1-worker
// throughput on the microbench probe. Wall-clock floors depend on the host,
// so the check runs only with SCALING_GUARD=1 (CI's shard-invariance job
// sets it); TestShardWindowsSplitEvenly holds the deterministic half in
// every run. The method damps host noise: one warm-up round, then
// interleaved 1- and 2-worker trials (alternating which goes first, so
// drift hits both alike), compared best against best.
func TestShardScaling(t *testing.T) {
	if os.Getenv("SCALING_GUARD") != "1" {
		t.Skip("wall-clock scaling floor: set SCALING_GUARD=1 to enforce")
	}
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skipf("GOMAXPROCS = %d: parallel speedup needs at least 2", runtime.GOMAXPROCS(0))
	}
	ctx := context.Background()
	probe, err := microbench.NewThroughputProbe(ctx, lnic.Netronome(), scalingPackets)
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 5
	var best [3]float64 // best PPS, indexed by worker count
	for r := -1; r < rounds; r++ {
		order := []int{1, 2}
		if r%2 != 0 {
			order = []int{2, 1}
		}
		for _, w := range order {
			runtime.GC() // start every trial without the previous one's garbage
			pt, err := probe.Run(ctx, w)
			if err != nil {
				t.Fatal(err)
			}
			if r >= 0 { // round -1 is the warm-up
				best[w] = max(best[w], pt.PPS)
			}
		}
	}
	speedup := best[2] / best[1]
	t.Logf("best of %d: 1 worker %.0f pps, 2 workers %.0f pps (%.2fx)", rounds, best[1], best[2], speedup)
	if speedup < minShardSpeedup {
		t.Errorf("2-worker speedup %.2fx, want >= %.2fx", speedup, minShardSpeedup)
	}
}

package microbench

import (
	"context"
	"fmt"
	"time"

	"clara/internal/cir"
	"clara/internal/lnic"
	"clara/internal/nicsim"
	"clara/internal/workload"
)

// ThroughputPoint is one sharded-simulator throughput measurement: the same
// synthetic trace simulated with `Workers` parallel shard workers.
type ThroughputPoint struct {
	Workers int
	Packets int
	Elapsed time.Duration
	PPS     float64 // simulated packets per wall-clock second
	Speedup float64 // PPS relative to the first (1-worker) point
}

// ThroughputProbe is the fixture behind ThroughputContext: the §3.2
// straight-line ALU probe on a NIC, one synthetic trace generated and
// decoded up front, and the shard window every measurement uses. Building
// it once lets callers time repeated sharded runs without paying the
// trace generation again.
type ThroughputProbe struct {
	Config nicsim.Config
	Trace  *workload.Trace
	Window int
}

// NewThroughputProbe builds the probe fixture for a trace of `packets`
// packets on nic.
func NewThroughputProbe(ctx context.Context, nic *lnic.LNIC, packets int) (*ThroughputProbe, error) {
	if packets < 1 {
		packets = 1
	}
	prog := instrProbe(cir.OpAdd, 48)
	tr, err := workload.GenerateContext(ctx, workload.Profile{
		Name: "throughput-probe", Packets: packets, RatePPS: 5e6, Flows: 1024,
		TCPFraction: 1, PayloadBytes: 64, Seed: 9,
	})
	if err != nil {
		return nil, err
	}
	// Decode up front: the cache is shared across runs, so the first point
	// would otherwise pay the whole parse and skew the baseline.
	tr.Decoded()

	// A window much smaller than the trace keeps every worker count busy;
	// identical across points so the merged results are too.
	window := packets / 16
	if window < 1024 {
		window = 1024
	}
	if window > nicsim.DefaultShardWindow {
		window = nicsim.DefaultShardWindow
	}
	return &ThroughputProbe{
		Config: nicsim.Config{NIC: nic, Prog: prog, Place: nicsim.DefaultPlacement(nic, prog), Seed: 42},
		Trace:  tr,
		Window: window,
	}, nil
}

// Run simulates the probe trace once on `workers` parallel shard workers
// and reports its wall-clock throughput. Speedup is left at 1.
func (p *ThroughputProbe) Run(ctx context.Context, workers int) (ThroughputPoint, error) {
	start := time.Now()
	res, err := nicsim.RunShardedContext(ctx, p.Config, p.Trace, nicsim.ShardOpts{Workers: workers, Window: p.Window})
	if err != nil {
		return ThroughputPoint{}, err
	}
	if res.Errors > 0 {
		return ThroughputPoint{}, fmt.Errorf("microbench: %d throughput-probe errors", res.Errors)
	}
	elapsed := time.Since(start)
	return ThroughputPoint{
		Workers: workers, Packets: len(res.Packets), Elapsed: elapsed,
		PPS: float64(len(res.Packets)) / elapsed.Seconds(), Speedup: 1,
	}, nil
}

// ThroughputContext measures the sharded simulator's wall-clock throughput
// on nic: one synthetic trace of `packets` packets is generated and decoded
// once, then simulated at each worker count in `workers` with an identical
// shard window — so every point simulates byte-identical work and the PPS
// ratios isolate scheduling, not results. The probe program is the §3.2
// straight-line ALU probe; throughput here characterizes the simulator
// itself (how fast ground truth can be produced), not the NIC.
func ThroughputContext(ctx context.Context, nic *lnic.LNIC, packets int, workers []int) ([]ThroughputPoint, error) {
	probe, err := NewThroughputProbe(ctx, nic, packets)
	if err != nil {
		return nil, err
	}
	points := make([]ThroughputPoint, 0, len(workers))
	var base float64
	for _, w := range workers {
		pt, err := probe.Run(ctx, w)
		if err != nil {
			return points, err
		}
		if base == 0 {
			base = pt.PPS
		}
		pt.Speedup = pt.PPS / base
		points = append(points, pt)
	}
	return points, nil
}

// Quickstart: predict the SmartNIC performance of an unported NF in a few
// lines — the paper's headline workflow. We write a small stateful firewall
// in the NF dialect, target a Netronome Agilio CX, describe the expected
// traffic abstractly, and get a latency/throughput profile without porting
// anything.
package main

import (
	"context"
	"fmt"
	"log"

	"clara"
)

const firewall = `nf firewall {
	state conns : map<13, 8>[65536];

	handler(pkt) {
		if (!parse(ipv4)) { return pass; }
		var k = flow_key();
		if (map_lookup(conns, k)) {
			emit(0);
			return pass;
		}
		if (parse(tcp) && (field(tcp, flags) & 0x02)) {
			map_put(conns, k, 1, 0);
			emit(0);
			return pass;
		}
		return drop;
	}
}`

func main() {
	// Every analysis entry takes a context: it carries cancellation,
	// deadlines and an optional analysis budget.
	ctx := context.Background()

	// 1. Compile the unported NF into the Clara IR.
	nf, err := clara.CompileNF(firewall)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("compiled %s: %d IR blocks, %d dataflow nodes\n",
		nf.Name(), len(nf.Program.Blocks), len(nf.Graph.Nodes))

	// 2. Pick a SmartNIC target.
	target, err := clara.NewTarget("netronome")
	if err != nil {
		log.Fatal(err)
	}

	// 3. Describe the workload abstractly (§3.5): 10k concurrent flows,
	//    80% TCP, 300-byte packets at 60k packets/second. The packet count
	//    matters: it fixes the flow-reuse expectation that drives stateful
	//    hit rates, so predict for the horizon you will measure.
	wl, err := clara.ParseWorkload("packets=20000,flows=10000,tcp=0.8,size=300,rate=60000")
	if err != nil {
		log.Fatal(err)
	}

	// 4. Map (solve the Π/Γ/Θ ILP) and predict.
	mapping, err := nf.MapContext(ctx, target, wl, clara.Hints{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(mapping.Describe(nf.Graph, target))

	pred, err := nf.PredictMappedContext(ctx, target, mapping, wl, clara.PredictOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(pred.String())

	// 5. Cross-check against the bundled cycle-level simulator ("Actual").
	prof, _ := clara.ParseTrafficProfile("packets=20000,flows=10000,tcp=0.8,size=300,rate=60000")
	trace, err := clara.GenerateTraceContext(ctx, prof)
	if err != nil {
		log.Fatal(err)
	}
	meas, err := nf.MeasureOptionsContext(ctx, target, mapping, trace, 1, clara.MeasureOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("simulated:  %.0f cycles/packet mean (predicted %.0f — %.1f%% off)\n",
		meas.MeanLatency(), pred.MeanCycles,
		100*abs(pred.MeanCycles-meas.MeanLatency())/meas.MeanLatency())
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

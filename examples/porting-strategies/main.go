// Porting strategies: use hints to explore the hand-tuning space before
// writing any NIC code — §1's "identify a promising porting strategy". The
// paper's motivating examples are reproduced directly: the LPM's flow-cache
// decision changes latency by more than an order of magnitude, and checksum
// placement for a 1000-byte NAT costs ~1700 extra cycles in software.
//
// For each strategy the predicted latency is cross-checked against the
// cycle-level simulator.
package main

import (
	"context"
	"fmt"
	"log"

	"clara"
	"clara/internal/nf"
)

func main() {
	target, err := clara.NewTarget("netronome")
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("== LPM (20k rules): flow cache on/off, table in DRAM ==")
	lpmSpec := nf.LPM(20000)
	lpm, err := clara.CompileNF(lpmSpec.Source)
	if err != nil {
		log.Fatal(err)
	}
	for k, v := range lpmSpec.PreloadEntries {
		lpm.Preload[k] = v
	}
	wlSpec := "packets=20000,flows=2000,size=300,rate=60000"
	compare(lpm, target, wlSpec, map[string]clara.Hints{
		"software-m/a-DRAM": {DisableFlowCache: true, PinState: map[string]string{"routes": "emem"}},
		"flow-cache":        {ForceFlowCache: true, PinState: map[string]string{"routes": "emem"}},
	})

	fmt.Println("\n== NAT (full checksum, 1000B packets): accelerator vs software ==")
	nat, err := clara.CompileNF(nf.NAT(true).Source)
	if err != nil {
		log.Fatal(err)
	}
	wlSpec = "packets=20000,flows=2000,size=1000,tcp=1.0,rate=60000"
	compare(nat, target, wlSpec, map[string]clara.Hints{
		"cksum-accel": {},
		"cksum-sw":    {DisableChecksumAccel: true},
	})

	fmt.Println("\n== Firewall (8k-entry table): state placement ==")
	fw, err := clara.CompileNF(nf.Firewall(8000).Source)
	if err != nil {
		log.Fatal(err)
	}
	wlSpec = "packets=20000,flows=2000,size=300,tcp=1.0,rate=60000"
	compare(fw, target, wlSpec, map[string]clara.Hints{
		"state-in-ctm":  {DisableFlowCache: true, PinState: map[string]string{"conns": "ctm"}},
		"state-in-imem": {DisableFlowCache: true, PinState: map[string]string{"conns": "imem"}},
		"state-in-emem": {DisableFlowCache: true, PinState: map[string]string{"conns": "emem"}},
	})
}

func compare(nfo *clara.NF, target *clara.Target, wlSpec string, strategies map[string]clara.Hints) {
	wl, err := clara.ParseWorkload(wlSpec)
	if err != nil {
		log.Fatal(err)
	}
	prof, err := clara.ParseTrafficProfile(wlSpec)
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	trace, err := clara.GenerateTraceContext(ctx, prof)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-20s %14s %14s %8s\n", "strategy", "predicted cyc", "measured cyc", "err")
	for name, hints := range strategies {
		m, err := nfo.MapContext(ctx, target, wl, hints)
		if err != nil {
			log.Fatal(err)
		}
		pred, err := nfo.PredictMappedContext(ctx, target, m, wl, clara.PredictOptions{})
		if err != nil {
			log.Fatal(err)
		}
		meas, err := nfo.MeasureOptionsContext(ctx, target, m, trace, 5, clara.MeasureOptions{})
		if err != nil {
			log.Fatal(err)
		}
		actual := meas.MeanLatency()
		errPct := 0.0
		if actual > 0 {
			errPct = 100 * abs(pred.MeanCycles-actual) / actual
		}
		fmt.Printf("%-20s %14.0f %14.0f %7.1f%%\n", name, pred.MeanCycles, actual, errPct)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

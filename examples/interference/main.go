// Interference: predict what happens when NFs share a SmartNIC (§3.5). The
// NFs are co-located with equal weights: each tenant's mapping is solved
// against a half-NIC slice of the cores, and its service times on the shared
// accelerators, hubs and memories are inflated by the contention the other
// tenant's load causes (a slowdown model fitted on the simulator). The
// predictions show which NF suffers and by how much.
package main

import (
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
	wl, err := clara.ParseWorkload("packets=50000,flows=5000,size=600,rate=120000")
	if err != nil {
		log.Fatal(err)
	}

	fw, err := clara.CompileNF(nf.Firewall(65536).Source)
	if err != nil {
		log.Fatal(err)
	}
	dpi, err := clara.CompileNF(nf.DPI().Source)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("solo predictions (whole NIC each):")
	for _, n := range []*clara.NF{fw, dpi} {
		p, err := n.Predict(target, wl, clara.Hints{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-10s %8.0f cycles/pkt, %.1f Mpps\n", n.Name(), p.MeanCycles, p.ThroughputPPS/1e6)
	}

	// Each tenant offers half the aggregate rate.
	half := wl
	half.RatePPS /= 2
	fmt.Println("co-located predictions (half-NIC slices, shared rate split, contention):")
	nfs := []*clara.NF{fw, dpi}
	shared, err := clara.PredictColocated(nfs, []float64{1, 1}, target, []clara.Workload{half, half})
	if err != nil {
		log.Fatal(err)
	}
	for i, p := range shared {
		fmt.Printf("  %-10s %8.0f cycles/pkt, %.1f Mpps\n",
			nfs[i].Name(), p.MeanCycles, p.ThroughputPPS/1e6)
	}
	fmt.Println("\nthe compute-bound DPI loses half its capacity with the cores;")
	fmt.Println("the firewall is accelerator-bound and mostly keeps its latency.")
}

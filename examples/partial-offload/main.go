// Partial offload: decide how much of an NF belongs on the SmartNIC and how
// much on the host CPUs — the paper's §6 extension. The analyzer sweeps
// every NIC-prefix/host-suffix partition of the dataflow graph, pricing the
// PCIe crossings, side-local state, latency, throughput and energy of each
// cut.
//
// Two NFs make the tradeoff vivid:
//   - the stateful firewall is cheap and touches its flow table on every
//     packet: any split pays PCIe round trips per table operation, so full
//     offload wins outright;
//   - DPI at large payloads is pure compute: the host's fast cores can beat
//     the NIC on latency, while the NIC's efficient cores win on energy —
//     the latency-optimal and energy-optimal cuts disagree.
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
	wl, err := clara.ParseWorkload("packets=50000,flows=5000,size=1200,rate=60000")
	if err != nil {
		log.Fatal(err)
	}
	pcie := clara.DefaultPCIe()
	fmt.Printf("host model: %s @ %.1f GHz; PCIe %.0f ns one-way, %.0f GB/s\n\n",
		clara.HostTarget().Name, clara.HostTarget().ClockGHz, pcie.LatencyNs, pcie.GBps)

	for _, spec := range []nf.Spec{nf.Firewall(65536), nf.DPI()} {
		nfo, err := clara.CompileNF(spec.Source)
		if err != nil {
			log.Fatal(err)
		}
		an, err := clara.AnalyzePartialContext(context.Background(), nfo, target, wl, pcie, 0)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(an.String())
		fmt.Printf("verdict: run %d of %d nodes on the NIC for latency; ",
			an.Best.Index, len(an.Cuts)-1)
		if an.EnergyBest.Index == an.Best.Index {
			fmt.Println("the energy-optimal cut agrees.")
		} else {
			fmt.Printf("for energy, keep %d on the NIC instead.\n", an.EnergyBest.Index)
		}
		fmt.Println()
	}
}

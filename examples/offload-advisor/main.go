// Offload advisor: decide whether to offload at all, and onto which
// SmartNIC — the §1 use case of "identify suitable SmartNIC models for her
// workloads" before buying hardware or porting code.
//
// We compare two NFs with very different shapes: a DPI engine (per-byte
// payload work that needs general-purpose cores) and an LPM forwarder
// (table lookups that pipeline hardware does natively). The ranking flips
// between them, and the pipeline ASIC is correctly reported as infeasible
// for DPI.
package main

import (
	"context"
	"fmt"
	"log"

	"clara"
	"clara/internal/nf"
)

func main() {
	workloads := []struct {
		name string
		spec string
	}{
		{"small packets", "packets=50000,flows=5000,size=128,rate=60000"},
		{"large packets", "packets=50000,flows=5000,size=1200,rate=60000"},
	}
	nfs := []struct {
		name string
		src  string
	}{
		{"dpi", nf.DPI().Source},
		{"lpm-20k", nf.LPM(20000).Source},
	}
	for _, n := range nfs {
		compiled, err := clara.CompileNF(n.src)
		if err != nil {
			log.Fatal(err)
		}
		for _, w := range workloads {
			wl, err := clara.ParseWorkload(w.spec)
			if err != nil {
				log.Fatal(err)
			}
			advice, err := clara.AdviseContext(context.Background(), compiled, wl, 0)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%s under %s:\n", n.name, w.name)
			for i, a := range advice {
				if !a.Feasible {
					fmt.Printf("  %d. %-16s cannot host this NF (%s)\n", i+1, a.Target, shorten(a.Reason))
					continue
				}
				fmt.Printf("  %d. %-16s %8.0f ns/pkt, up to %.1f Mpps\n",
					i+1, a.Target, a.MeanNanos, a.Throughput/1e6)
			}
			fmt.Println()
		}
	}
}

func shorten(s string) string {
	if len(s) > 70 {
		return s[:67] + "..."
	}
	return s
}

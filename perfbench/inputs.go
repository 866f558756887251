package main

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"clara/internal/nf"
)

// The advise workload and the serve workload's inline requests need NF
// sources nobody has compiled before. nfSource draws one from the corpus
// families with seeded parameters and gives it a unique name, so no cache
// keyed by source text can have seen it.

// families lists the corpus families with a seeded parameter draw each.
// Families without a constructor parameter get a seeded state capacity (and
// DPI an extra seeded signature) by rewriting their source.
var families = []struct {
	name string
	make func(r *rand.Rand) nf.Spec
}{
	{"lpm", func(r *rand.Rand) nf.Spec { return nf.LPM(5000 + r.Intn(25001)) }},
	{"nat", func(r *rand.Rand) nf.Spec { return withCapacity(nf.NAT(false), r) }},
	{"nat-full", func(r *rand.Rand) nf.Spec { return withCapacity(nf.NAT(true), r) }},
	{"firewall", func(r *rand.Rand) nf.Spec { return nf.Firewall(1 << (12 + r.Intn(6))) }},
	{"dpi", func(r *rand.Rand) nf.Spec { return withSignature(nf.DPI(), r) }},
	{"heavyhitter", func(r *rand.Rand) nf.Spec { return nf.HeavyHitter(100 + r.Intn(5000)) }},
	{"metering", func(r *rand.Rand) nf.Spec { return nf.Metering(10+r.Intn(500), 8+r.Intn(256)) }},
	{"flowstats", func(r *rand.Rand) nf.Spec { return withCapacity(nf.FlowStats(), r) }},
	{"vnfchain", func(r *rand.Rand) nf.Spec { return withCapacity(nf.VNFChain(), r) }},
	{"syncookie", func(r *rand.Rand) nf.Spec { return withCapacity(nf.Syncookie(), r) }},
	{"loadbalancer", func(r *rand.Rand) nf.Spec { return nf.LoadBalancer(2 + r.Intn(254)) }},
	{"ratelimiter", func(r *rand.Rand) nf.Spec { return nf.RateLimiter(100 + r.Intn(20000)) }},
}

// withCapacity replaces the corpus default table capacity.
func withCapacity(s nf.Spec, r *rand.Rand) nf.Spec {
	s.Source = strings.ReplaceAll(s.Source, "[65536]", fmt.Sprintf("[%d]", 1<<(12+r.Intn(6))))
	return s
}

// withSignature appends a seeded lowercase signature to the DPI pattern set.
func withSignature(s nf.Spec, r *rand.Rand) nf.Spec {
	sig := make([]byte, 6+r.Intn(6))
	for i := range sig {
		sig[i] = byte('a' + r.Intn(26))
	}
	s.Source = strings.Replace(s.Source, `"<script>"]`, fmt.Sprintf(`"<script>", "%s"]`, sig), 1)
	return s
}

// nfSource draws the uid-th source of a seeded stream from the family-th
// family: its parameters, and the name "<family>_<tag>_<uid>".
func nfSource(r *rand.Rand, family int, tag string, uid int) nf.Spec {
	f := families[family]
	s := f.make(r)
	name := strings.ReplaceAll(f.name, "-", "_")
	head := s.Source[:strings.Index(s.Source, "{")]
	s.Source = fmt.Sprintf("nf %s_%s_%d %s", name, tag, uid, s.Source[len(head):])
	s.Name = fmt.Sprintf("%s_%s_%d", name, tag, uid)
	return s
}

// workloadSpec draws an abstract workload spec in the CLI syntax: flow count
// (log-uniform 100..100k), offered rate, TCP share and payload size.
func workloadSpec(r *rand.Rand) string {
	flows := int(math.Round(math.Pow(10, 2+3*r.Float64())))
	rate := 10000 + 1000*r.Intn(191)
	tcp := 0.05 + 0.9*r.Float64()
	size := 64 + r.Intn(1337)
	return fmt.Sprintf("flows=%d,rate=%d,tcp=%.3f,size=%d", flows, rate, tcp, size)
}

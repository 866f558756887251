package main

import (
	"crypto/sha256"
	"encoding/binary"
	"hash"
	"math"
	"sort"

	"clara/internal/nicsim"
)

// digest fingerprints what a simulator run reports: packet count, each
// packet's verdict, latency and cycle breakdown, the faulted-packet count,
// the per-region cache hit rates and the flow-cache hit rate. Floats are
// hashed bit for bit, so two runs share a digest only if they agree exactly.
func digest(r *nicsim.Result) [32]byte {
	h := sha256.New()
	putU := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	putF := func(f float64) {
		if math.IsNaN(f) {
			putU(0x7ff8000000000001) // one NaN, whatever its payload
			return
		}
		putU(math.Float64bits(f))
	}
	putU(uint64(len(r.Packets)))
	for i := range r.Packets {
		p := &r.Packets[i]
		putU(p.Verdict)
		putF(p.Latency)
		putF(p.Breakdown.Compute)
		putF(p.Breakdown.Mem)
		putF(p.Breakdown.Accel)
		putF(p.Breakdown.Queue)
		putF(p.Breakdown.Fixed)
	}
	putU(uint64(r.Errors))
	writeRates(h, r.CacheHitRate, putF)
	putF(r.FlowCacheHitRate)
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// writeRates hashes a region→rate map in region-name order.
func writeRates(h hash.Hash, rates map[string]float64, putF func(float64)) {
	names := make([]string, 0, len(rates))
	for n := range rates {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		h.Write([]byte(n))
		h.Write([]byte{0})
		putF(rates[n])
	}
}

// digestsMatch compares per-tenant digests of a run against a reference.
func digestsMatch(got []*nicsim.Result, want [][32]byte) bool {
	if len(got) != len(want) {
		return false
	}
	for i, r := range got {
		if r == nil || digest(r) != want[i] {
			return false
		}
	}
	return true
}

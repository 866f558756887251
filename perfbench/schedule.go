package main

import (
	"math/rand"
	"time"
)

// arrival is one request of an open-loop schedule.
type arrival struct {
	Due  time.Duration // when the request is due, from the start of the run
	Kind int           // index into the mix
	Key  int           // catalogue entry of that kind
}

// mixEntry is one request kind of an open-loop mix.
type mixEntry struct {
	share float64 // relative share of arrivals
	// keys is the kind's catalogue size. Keys are Zipf-popular over a seeded
	// permutation of the catalogue. Zero means every arrival of the kind gets
	// a fresh key (0, 1, 2, ... in arrival order).
	keys int
}

// schedule draws Poisson arrivals at rate per second for dur, choosing each
// arrival's kind by share and its key by Zipf(s) popularity. The schedule is
// a function of its arguments alone: the same seed gives the same schedule.
func schedule(seed int64, rate float64, dur time.Duration, mix []mixEntry, s float64) []arrival {
	r := rand.New(rand.NewSource(seed))
	total := 0.0
	for _, m := range mix {
		total += m.share
	}
	zipfs := make([]*rand.Zipf, len(mix))
	perms := make([][]int, len(mix))
	fresh := make([]int, len(mix))
	for i, m := range mix {
		if m.keys > 1 {
			zipfs[i] = rand.NewZipf(r, s, 1, uint64(m.keys-1))
		}
		if m.keys > 0 {
			perms[i] = r.Perm(m.keys)
		}
	}
	var out []arrival
	at := 0.0
	for {
		at += r.ExpFloat64() / rate
		due := time.Duration(at * float64(time.Second))
		if due >= dur {
			return out
		}
		pick := r.Float64() * total
		kind := len(mix) - 1
		for i, m := range mix {
			if pick < m.share {
				kind = i
				break
			}
			pick -= m.share
		}
		key := 0
		switch {
		case mix[kind].keys == 0:
			key = fresh[kind]
			fresh[kind]++
		case zipfs[kind] != nil:
			key = perms[kind][zipfs[kind].Uint64()]
		}
		out = append(out, arrival{Due: due, Kind: kind, Key: key})
	}
}

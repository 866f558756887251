package nicsim

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"testing"

	"clara/internal/cir"
)

// lpmMaps is the map-of-maps LPM table the flat open-addressing table
// replaced, kept as its oracle: one Go map of masked prefixes per prefix
// length, the installed lengths sorted longest first, and the rule list
// whose length is the live entry count.
type lpmMaps struct {
	rules []lpmRule
	byLen map[uint8]map[uint32]uint32
	lens  []uint8 // descending
}

// newLPMMaps synthesizes the same rule stream newLPMState does, into the
// oracle table.
func newLPMMaps(entries int, seed int64) *lpmMaps {
	l := &lpmMaps{byLen: map[uint8]map[uint32]uint32{}}
	rng := rand.New(rand.NewSource(seed))
	l.install(lpmRule{prefix: 0, plen: 0, nh: 0})
	for attempts := 0; l.entries() < entries && attempts < entries*100+10000; attempts++ {
		var r lpmRule
		if attempts%4 == 0 {
			plen := uint8(17 + rng.Intn(14))
			addr := 0xc0a80000 | uint32(rng.Intn(1<<16))
			r = lpmRule{prefix: mask(addr, plen), plen: plen, nh: uint32(rng.Intn(16))}
		} else {
			plen := uint8(8 + rng.Intn(21))
			addr := rng.Uint32()
			r = lpmRule{prefix: mask(addr, plen), plen: plen, nh: uint32(rng.Intn(16))}
		}
		l.install(r)
	}
	return l
}

func (l *lpmMaps) install(r lpmRule) {
	m, ok := l.byLen[r.plen]
	if !ok {
		m = map[uint32]uint32{}
		l.byLen[r.plen] = m
		l.lens = append(l.lens, r.plen)
		sort.Slice(l.lens, func(i, j int) bool { return l.lens[i] > l.lens[j] })
	}
	if _, dup := m[r.prefix]; !dup {
		l.rules = append(l.rules, r)
	}
	m[r.prefix] = r.nh
}

func (l *lpmMaps) lookup(addr uint32) uint64 {
	for _, plen := range l.lens {
		if nh, ok := l.byLen[plen][mask(addr, plen)]; ok {
			return uint64(nh)
		}
	}
	return ^uint64(0)
}

func (l *lpmMaps) entries() int { return len(l.rules) }

// lpmProbe is a lookup address: a random one, or (odd draws) one inside a
// random installed rule, so lookups hit long prefixes as well as the
// default route.
func lpmProbe(rng *rand.Rand, rules []lpmRule) uint32 {
	addr := rng.Uint32()
	if len(rules) > 0 && rng.Intn(2) == 1 {
		r := rules[rng.Intn(len(rules))]
		addr = r.prefix | addr&^mask(^uint32(0), r.plen)
	}
	return addr
}

// checkLPMAgainstMaps requires the flat table to agree with the oracle on
// the entry count and on lookups of n probe addresses.
func checkLPMAgainstMaps(t testing.TB, what string, got *lpmState, want *lpmMaps, rng *rand.Rand, n int) {
	t.Helper()
	if got.entries() != want.entries() {
		t.Fatalf("%s: entries %d, map-of-maps table %d", what, got.entries(), want.entries())
	}
	for i := 0; i < n; i++ {
		addr := lpmProbe(rng, want.rules)
		if g, w := got.lookup(addr), want.lookup(addr); g != w {
			t.Fatalf("%s: lookup(%08x) = %d, map-of-maps table %d", what, addr, g, w)
		}
	}
}

// TestLPMTableMatchesMaps holds the flat table to the map-of-maps oracle:
// synthesized tables of several sizes and seeds (the rule stream, duplicate
// retries and entry count must match), and random rule sets installed into a
// zero table and into a table presized for one rule, so both grow. The rule
// sets draw every prefix length 0..32 and repeat prefixes with new next hops,
// which must overwrite without counting.
func TestLPMTableMatchesMaps(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	obj := cir.StateObj{Name: "r", Kind: cir.StateLPM, KeySize: 4, ValueSize: 4, Capacity: 10}
	for _, entries := range []int{0, 1, 2, 15, 16, 100, 3000} {
		for seed := int64(1); seed <= 3; seed++ {
			checkLPMAgainstMaps(t, fmt.Sprintf("synthesized %d/%d", entries, seed),
				newLPMState(obj, 0, 0, entries, seed), newLPMMaps(entries, seed), rng, 2000)
		}
	}
	for trial := 0; trial < 200; trial++ {
		got, want := &lpmState{}, &lpmMaps{byLen: map[uint8]map[uint32]uint32{}}
		if trial%2 == 1 {
			// Presized for the default route alone.
			got, want = newLPMState(obj, 0, 0, 1, int64(trial)), newLPMMaps(1, int64(trial))
		}
		var installed []lpmRule
		for i, n := 0, rng.Intn(120); i < n; i++ {
			plen := uint8(rng.Intn(33))
			r := lpmRule{prefix: mask(rng.Uint32(), plen), plen: plen, nh: uint32(rng.Intn(1000))}
			if len(installed) > 0 && rng.Intn(4) == 0 {
				// A prefix already installed, with a new next hop.
				r = installed[rng.Intn(len(installed))]
				r.nh = uint32(rng.Intn(1000))
			}
			installed = append(installed, r)
			got.install(r)
			want.install(r)
		}
		checkLPMAgainstMaps(t, fmt.Sprintf("trial %d", trial), got, want, rng, 300)
	}
}

// FuzzLPMTableMatchesMaps is TestLPMTableMatchesMaps's randomized arm: the
// fuzzer writes the rule set (five bytes a rule: prefix length, then the
// prefix's bytes, the next hop taken from the first) and the probe seed.
func FuzzLPMTableMatchesMaps(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 32, 192, 168, 1, 1, 24, 192, 168, 1, 9, 24, 192, 168, 1, 200})
	f.Add([]byte{8, 10, 0, 0, 0, 8, 10, 99, 99, 99, 16, 10, 1, 0, 0, 32, 10, 1, 2, 3, 0, 7, 7, 7, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		got := &lpmState{}
		want := &lpmMaps{byLen: map[uint8]map[uint32]uint32{}}
		var seed int64
		for len(data) >= 5 {
			plen := data[0] % 33
			prefix := uint32(data[1])<<24 | uint32(data[2])<<16 | uint32(data[3])<<8 | uint32(data[4])
			r := lpmRule{prefix: mask(prefix, plen), plen: plen, nh: uint32(data[1]) * 3}
			got.install(r)
			want.install(r)
			seed = seed*31 + int64(prefix)
			data = data[5:]
		}
		checkLPMAgainstMaps(t, "fuzz", got, want, rand.New(rand.NewSource(seed)), 500)
	})
}

// lpmDigest hashes a synthesized 10k-rule table's entry count and its next
// hops for 20000 probe addresses (uniform ones and ones inside 192.168/16,
// where the synthesized rules concentrate).
func lpmDigest(seed int64) uint64 {
	obj := cir.StateObj{Name: "routes", Kind: cir.StateLPM, KeySize: 4, ValueSize: 4, Capacity: 10000}
	l := newLPMState(obj, 0, 0, 10000, seed)
	h := fnv.New64a()
	fmt.Fprintf(h, "%d;", l.entries())
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	for i := 0; i < 20000; i++ {
		addr := rng.Uint32()
		if i%2 == 1 {
			addr = 0xc0a80000 | addr&0xffff
		}
		fmt.Fprintf(h, "%d,", l.lookup(addr))
	}
	return h.Sum64()
}

// TestLPMTableDigest pins the synthesized LPM-10k table, lookup for lookup,
// to the digests the map-of-maps table produced for the same seeds.
func TestLPMTableDigest(t *testing.T) {
	want := map[int64]uint64{
		1:        0x99a64d8fe235a158,
		42:       0xdbe45be6d69a92c6,
		20261018: 0x0d92f69994b46c40,
	}
	for seed, w := range want {
		if got := lpmDigest(seed); got != w {
			t.Errorf("seed %d: digest %#x, want %#x", seed, got, w)
		}
	}
}

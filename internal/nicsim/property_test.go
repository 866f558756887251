package nicsim

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"clara/internal/cir"
)

// naiveMatchCount counts overlapping occurrences of every pattern in text.
func naiveMatchCount(patterns []string, text string) int {
	total := 0
	for _, p := range patterns {
		if p == "" {
			continue
		}
		for i := 0; i+len(p) <= len(text); i++ {
			if text[i:i+len(p)] == p {
				total++
			}
		}
	}
	return total
}

// TestAhoCorasickMatchesNaive cross-checks the automaton against a naive
// overlapping-substring counter on random inputs over a small alphabet
// (small alphabets maximize overlap and failure-link stress).
func TestAhoCorasickMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	alphabet := "abc"
	randStr := func(maxLen int) string {
		n := rng.Intn(maxLen) + 1
		var b strings.Builder
		for i := 0; i < n; i++ {
			b.WriteByte(alphabet[rng.Intn(len(alphabet))])
		}
		return b.String()
	}
	for trial := 0; trial < 300; trial++ {
		np := 1 + rng.Intn(5)
		patterns := make([]string, np)
		for i := range patterns {
			patterns[i] = randStr(4)
		}
		text := randStr(60)
		ac := buildAC(patterns)
		got := ac.Scan([]byte(text))
		want := naiveMatchCount(patterns, text)
		if got != want {
			t.Fatalf("patterns %q text %q: ac=%d naive=%d", patterns, text, got, want)
		}
	}
}

// TestAhoCorasickDuplicatePatterns checks that duplicate patterns count
// once per trie terminal (they collapse onto the same node, so a single
// occurrence reports len(dups) matches only if out counts were summed).
func TestAhoCorasickDuplicatePatterns(t *testing.T) {
	ac := buildAC([]string{"ab", "ab"})
	if got := ac.Scan([]byte("ab")); got != 2 {
		t.Errorf("duplicate patterns matched %d times, want 2 (both registered)", got)
	}
}

// TestCacheHitRateProperty: accessing one line n times hits n-1 times.
func TestCacheHitRateProperty(t *testing.T) {
	f := func(rounds uint8) bool {
		n := int(rounds%200) + 2
		c := newCache(4096, 64)
		for i := 0; i < n; i++ {
			c.access(100)
		}
		return c.hits == uint64(n-1) && c.misses == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestCacheNoFalseHits: distinct lines beyond capacity never all hit.
func TestCacheNoFalseHits(t *testing.T) {
	c := newCache(1024, 64) // 16 lines
	for i := 0; i < 64; i++ {
		if c.access(uint64(i)*64) && i < 16 {
			t.Fatalf("access %d hit on first touch", i)
		}
	}
	if c.hits != 0 {
		t.Errorf("cold sweep produced %d hits", c.hits)
	}
}

// TestCacheAssociativityWithinSet: a working set equal to one set's ways
// must be hit-stable under round-robin access (LRU keeps all resident).
func TestCacheAssociativityWithinSet(t *testing.T) {
	c := newCache(8192, 64) // 128 lines, 8 ways, 16 sets
	// 8 lines mapping to the same set: stride = sets × lineBytes.
	stride := uint64(c.sets * c.lineBytes)
	for round := 0; round < 10; round++ {
		for w := 0; w < 8; w++ {
			c.access(uint64(w) * stride)
		}
	}
	// First round: 8 misses; the other 9 rounds: all hits.
	if c.misses != 8 {
		t.Errorf("misses = %d, want 8 (LRU should retain a full set)", c.misses)
	}
}

// TestCacheRepeatShortcutIsExact: access's most-recent-line shortcut must
// leave the cache exactly as the full set scan would. Two caches see one
// random stream, rich in immediate repeats, evictions and set conflicts;
// the second forgets its shortcut before every access, so it always scans.
func TestCacheRepeatShortcutIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, geom := range []struct {
		capacity int64
		line     int
	}{{8192, 64}, {3 << 10, 48}, {192, 64}} {
		fast, scan := newCache(geom.capacity, geom.line), newCache(geom.capacity, geom.line)
		addr := uint64(0)
		for i := 0; i < 20000; i++ {
			if rng.Intn(3) > 0 { // otherwise repeat the previous address's line
				addr = uint64(rng.Intn(64 * geom.line))
			}
			scan.mruSlot = -1
			if hf, hs := fast.access(addr), scan.access(addr); hf != hs {
				t.Fatalf("geometry %+v, access %d at %d: shortcut hit=%v, scan hit=%v", geom, i, addr, hf, hs)
			}
		}
		if fast.hits != scan.hits || fast.misses != scan.misses || fast.clock != scan.clock {
			t.Fatalf("geometry %+v: counters diverged", geom)
		}
		for i := range fast.tags {
			if fast.tags[i] != scan.tags[i] || fast.lru[i] != scan.lru[i] {
				t.Fatalf("geometry %+v: slot %d diverged", geom, i)
			}
		}
		if fast.hits == 0 || fast.misses == 0 {
			t.Fatalf("geometry %+v: stream saw %d hits, %d misses", geom, fast.hits, fast.misses)
		}
	}
}

// TestLPMMatchesLongestPrefix cross-checks LPM lookups against a naive
// longest-match scan on random rule sets.
func TestLPMMatchesLongestPrefix(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		l := &lpmState{}
		type rule struct {
			prefix uint32
			plen   uint8
			nh     uint32
		}
		var rules []rule
		for i := 0; i < 20; i++ {
			plen := uint8(rng.Intn(33))
			r := rule{prefix: mask(rng.Uint32(), plen), plen: plen, nh: uint32(i)}
			rules = append(rules, r)
			l.install(lpmRule{prefix: r.prefix, plen: r.plen, nh: r.nh})
		}
		for probe := 0; probe < 50; probe++ {
			addr := rng.Uint32()
			// Naive: best (longest) matching prefix wins; ties on the same
			// (prefix, plen) keep the last-installed next hop.
			bestLen := -1
			var bestNH uint64 = ^uint64(0)
			for _, r := range rules {
				if mask(addr, r.plen) == r.prefix && int(r.plen) >= bestLen {
					if int(r.plen) > bestLen {
						bestLen = int(r.plen)
						bestNH = uint64(r.nh)
					} else {
						bestNH = uint64(r.nh) // later install overwrites
					}
				}
			}
			if got := l.lookup(addr); got != bestNH {
				t.Fatalf("trial %d addr %08x: lpm=%d naive=%d", trial, addr, got, bestNH)
			}
		}
	}
}

// TestMaskProperty: mask is idempotent and monotone in prefix length.
func TestMaskProperty(t *testing.T) {
	f := func(addr uint32, plen uint8) bool {
		p := plen % 33
		m := mask(addr, p)
		if mask(m, p) != m {
			return false
		}
		// A longer mask of the masked value agrees on the masked bits.
		return mask(m, p) == mask(mask(addr, 32), p)&m|m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestSketchNeverUndercounts: count-min estimates are upper bounds on true
// counts.
func TestSketchNeverUndercounts(t *testing.T) {
	f := func(keys []uint16) bool {
		if len(keys) == 0 {
			return true
		}
		if len(keys) > 300 {
			keys = keys[:300]
		}
		s := newSketchState(sketchObj(), 0, 0)
		truth := map[uint64]uint64{}
		for _, k := range keys {
			key := uint64(k)
			truth[key]++
			if est := s.add(key); est < truth[key] {
				return false
			}
		}
		for k, n := range truth {
			if s.read(k) < n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func sketchObj() cir.StateObj {
	return cir.StateObj{Name: "s", Kind: cir.StateSketch, ValueSize: 4, Capacity: 1024}
}

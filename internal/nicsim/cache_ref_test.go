package nicsim

import (
	"encoding/binary"
	"math/rand"
	"testing"
)

// flatCache is the cache as it stood before storage became per touched set:
// tags and lru allocated for the whole capacity up front, every tag −1, and
// reset rewriting both arrays. It keeps the same geometry, set-index split
// and most-recent-line shortcut, and serves as the oracle the lazy cache is
// held to: same hit/miss answer on every access, same counters, same clock.
type flatCache struct {
	lineBytes, sets, ways int
	tags                  []int64
	lru                   []uint64
	clock                 uint64
	mruLine               uint64
	mruSlot               int
	hits, misses          uint64
}

func newFlatCache(c *cache) *flatCache {
	f := &flatCache{lineBytes: c.lineBytes, sets: c.sets, ways: c.ways,
		tags: make([]int64, c.sets*c.ways), lru: make([]uint64, c.sets*c.ways)}
	f.reset()
	return f
}

func (f *flatCache) access(addr uint64) bool {
	f.clock++
	line := addr / uint64(f.lineBytes)
	if line == f.mruLine && f.mruSlot >= 0 {
		f.lru[f.mruSlot] = f.clock
		f.hits++
		return true
	}
	set := int(line % uint64(f.sets))
	tag := int64(line / uint64(f.sets))
	base := set * f.ways
	for w := 0; w < f.ways; w++ {
		if f.tags[base+w] == tag {
			f.lru[base+w] = f.clock
			f.hits++
			f.mruLine, f.mruSlot = line, base+w
			return true
		}
	}
	f.misses++
	victim := base
	oldest := f.lru[base]
	for i := base + 1; i < base+f.ways; i++ {
		if f.lru[i] < oldest {
			oldest = f.lru[i]
			victim = i
		}
	}
	f.tags[victim] = tag
	f.lru[victim] = f.clock
	f.mruLine, f.mruSlot = line, victim
	return false
}

func (f *flatCache) reset() {
	for i := range f.tags {
		f.tags[i] = -1
		f.lru[i] = 0
	}
	f.clock, f.mruSlot, f.hits, f.misses = 0, -1, 0, 0
}

// checkCacheMatchesFlat replays addrs through a lazy cache and its flat
// oracle, resetting both before the accesses listed in resets, and fails on
// the first diverging hit/miss answer or counter.
func checkCacheMatchesFlat(t *testing.T, capacity int64, line int, addrs []uint64, resets map[int]bool) {
	t.Helper()
	c := newCache(capacity, line)
	if c == nil {
		return
	}
	f := newFlatCache(c)
	for i, a := range addrs {
		if resets[i] {
			c.reset()
			f.reset()
			if len(c.slots) != 0 {
				t.Fatalf("geometry %d/%d: reset left %d arena slots", capacity, line, len(c.slots))
			}
		}
		if got, want := c.access(a), f.access(a); got != want {
			t.Fatalf("geometry %d/%d, access %d at %#x: lazy hit=%v, flat hit=%v", capacity, line, i, a, got, want)
		}
		if c.hits != f.hits || c.misses != f.misses || c.clock != f.clock {
			t.Fatalf("geometry %d/%d, access %d: lazy hits/misses/clock %d/%d/%d, flat %d/%d/%d",
				capacity, line, i, c.hits, c.misses, c.clock, f.hits, f.misses, f.clock)
		}
	}
	if len(c.slots) > c.sets*c.ways || len(c.slots)%c.ways != 0 {
		t.Fatalf("geometry %d/%d: arena holds %d slots for %d sets of %d ways", capacity, line, len(c.slots), c.sets, c.ways)
	}
}

// TestCacheMatchesFlat holds the per-touched-set cache to the flat one on
// random address streams: power-of-two and reciprocal set indexing, direct
// mapped, 4- and 8-way, non-power-of-two lines, streams that revisit a
// small working set and streams that thrash, with resets mid-stream.
func TestCacheMatchesFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	geoms := []struct {
		capacity int64
		line     int
	}{{3 << 20, 64}, {8192, 64}, {3 << 10, 48}, {192, 64}, {64, 64}, {6 << 10, 96}, {1 << 20, 128}}
	for _, g := range geoms {
		for _, spanLines := range []int{16, 2048, 1 << 20} {
			addrs := make([]uint64, 20000)
			for i := range addrs {
				if i > 0 && rng.Intn(4) == 0 {
					addrs[i] = addrs[i-1] // a repeat exercises the MRU shortcut
					continue
				}
				addrs[i] = uint64(rng.Intn(spanLines*g.line)) + uint64(rng.Intn(3))<<40
			}
			resets := map[int]bool{7000: true, 7001: true, 15000: true}
			checkCacheMatchesFlat(t, g.capacity, g.line, addrs, resets)
		}
	}
}

// FuzzCacheMatchesFlat drives the same comparison from fuzzed geometry and
// address streams. The first two bytes pick capacity and line size; each
// following 8-byte word is an address, except that a word whose top byte is
// 0xFF resets both caches instead.
func FuzzCacheMatchesFlat(f *testing.F) {
	f.Add([]byte{4, 6, 0, 0, 0, 0, 0, 0, 0, 0, 64, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{200, 48, 1, 2, 3, 4, 5, 6, 7, 8, 0, 0, 0, 0, 0, 0, 0, 0xFF, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{1, 0, 255, 255, 255, 255, 255, 255, 255, 0x7F})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		capacity := int64(data[0]) << 8
		line := int(data[1]) + 1
		data = data[2:]
		var addrs []uint64
		resets := map[int]bool{}
		for len(data) >= 8 {
			w := binary.LittleEndian.Uint64(data)
			data = data[8:]
			if w>>56 == 0xFF {
				resets[len(addrs)] = true
				continue
			}
			addrs = append(addrs, w)
		}
		checkCacheMatchesFlat(t, capacity, line, addrs, resets)
	})
}

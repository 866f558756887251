package nicsim

import "math/bits"

// cache is a set-associative LRU cache modelling the fronting cache of an
// LNIC memory region (the Netronome EMEM's 3 MB cache, §3.2). The simulator
// consults it on every concrete address, so working-set effects — Zipf flow
// skew fitting in cache, large tables thrashing it — emerge from real access
// streams rather than from an analytic hit-rate formula. That gap is a
// deliberate source of Clara's prediction error.
type cache struct {
	lineBytes int
	sets      int
	ways      int
	// lineShift is log2(lineBytes) when lineBytes is a power of two (the
	// common case for every LNIC profile), letting access divide by shift;
	// -1 otherwise.
	lineShift int
	// Set/tag split without a per-access hardware divide: when sets is a
	// power of two, setsMask/setsL give mask-and-shift; otherwise setsM is
	// the Granlund–Montgomery reciprocal (floor(2^(64+setsL)/sets)+1 with
	// setsL = floor(log2 sets)), exact for any line below 2^63 — far above
	// any simulated address. setsM == 0 means mask-and-shift applies.
	setsMask uint64
	setsM    uint64
	setsL    uint
	// Storage exists only for the sets a run touches. block[set] is 1 + the
	// offset of the set's ways in the slots arena, or 0 while the set is
	// untouched since construction or reset; the first touch appends the
	// set's ways, all invalid (tag −1, lru 0) — the state a never-touched
	// set of a fully allocated cache is in — so hit/miss answers and LRU
	// victims do not depend on when storage appeared. A set's ways are
	// contiguous (one bounds check per set scan) and each keeps its tag next
	// to its recency counter, so a hit reads and writes one memory line.
	// Construction costs 4 bytes per set instead of 16 per line, and reset
	// clears the index and truncates the arena.
	block []int32
	slots []cacheWay
	clock uint64
	// mruLine and mruSlot remember the most recent access (mruSlot < 0 when
	// there is none). Nothing can evict a line between two accesses, so
	// touching the line just touched again is a hit at the same slot — the
	// DPI walk fetches one automaton row many times in a row — and access
	// answers it without the set-index arithmetic or the way scan.
	mruLine uint64
	mruSlot int

	hits, misses uint64
}

// newCache sizes a cache of capacity bytes with the given line size and a
// fixed associativity of 8 — falling back to 4 ways when fewer than 8 lines
// fit, and to direct-mapped below 4 lines. A nil cache is returned for zero
// capacity.
func newCache(capacityBytes int64, lineBytes int) *cache {
	if capacityBytes <= 0 {
		return nil
	}
	if lineBytes <= 0 {
		lineBytes = 64
	}
	ways := 8
	lines := int(capacityBytes) / lineBytes
	if lines < 8 {
		ways = 4
	}
	if lines < 4 {
		ways = 1
	}
	sets := lines / ways
	if sets < 1 {
		sets = 1
	}
	c := &cache{lineBytes: lineBytes, sets: sets, ways: ways, lineShift: -1, mruSlot: -1}
	if lineBytes&(lineBytes-1) == 0 {
		c.lineShift = bits.TrailingZeros(uint(lineBytes))
	}
	if sets&(sets-1) == 0 {
		c.setsMask = uint64(sets - 1)
		c.setsL = uint(bits.TrailingZeros(uint(sets)))
	} else {
		c.setsL = uint(63 - bits.LeadingZeros64(uint64(sets)))
		q, _ := bits.Div64(1<<c.setsL, 0, uint64(sets))
		c.setsM = q + 1
	}
	c.block = make([]int32, sets)
	return c
}

// cacheWay is one way of a set: its tag (≥ 0 when valid, −1 when not) and
// its recency counter (higher = more recent).
type cacheWay struct {
	tag int64
	lru uint64
}

// touch appends set's ways to the arena, all invalid, and returns their
// offset. The arena doubles when full, from 16 sets up to the whole
// capacity, so a run that touches every set allocates under twice the
// whole-capacity arrays (append's 1.25x steps for large slices allocate
// several times that). touch runs once per set per run, so it stays out of
// line: inlined, it gave access a larger frame and slowed every hit
// (BenchmarkCacheAccessHit).
//
//go:noinline
func (c *cache) touch(set int) int {
	base := len(c.slots)
	n := base + c.ways
	if n > cap(c.slots) {
		size := min(max(2*cap(c.slots), 16*c.ways), c.sets*c.ways)
		c.slots = append(make([]cacheWay, 0, size), c.slots...)
	}
	c.slots = c.slots[:n]
	for w := base; w < n; w++ {
		c.slots[w] = cacheWay{tag: -1}
	}
	c.block[set] = int32(base + 1)
	return base
}

// access looks up addr, installing its line on miss. It reports whether the
// access hit.
func (c *cache) access(addr uint64) bool {
	c.clock++
	var line uint64
	if c.lineShift >= 0 {
		line = addr >> uint(c.lineShift)
	} else {
		line = addr / uint64(c.lineBytes)
	}
	if line == c.mruLine && c.mruSlot >= 0 {
		c.slots[c.mruSlot].lru = c.clock
		c.hits++
		return true
	}
	// Sequential lines must spread across sets, so the set index is the
	// modulo class of the line — computed by mask-and-shift or reciprocal
	// multiplication (see the field comments), never a hardware divide.
	var set int
	var tag int64
	if c.setsM == 0 {
		set = int(line & c.setsMask)
		tag = int64(line >> c.setsL)
	} else if line < 1<<63 {
		t, _ := bits.Mul64(line, c.setsM)
		t >>= c.setsL
		set = int(line - t*uint64(c.sets))
		tag = int64(t)
	} else {
		set = int(line % uint64(c.sets))
		tag = int64(line / uint64(c.sets))
	}
	base := int(c.block[set]) - 1
	if base < 0 {
		base = c.touch(set)
	}
	row := c.slots[base : base+c.ways]
	for w := range row {
		if row[w].tag == tag {
			row[w].lru = c.clock
			c.hits++
			c.mruLine, c.mruSlot = line, base+w
			return true
		}
	}
	c.misses++
	// Evict LRU way.
	v := 0
	oldest := row[0].lru
	for w := 1; w < len(row); w++ {
		if row[w].lru < oldest {
			oldest = row[w].lru
			v = w
		}
	}
	row[v] = cacheWay{tag: tag, lru: c.clock}
	c.mruLine, c.mruSlot = line, base+v
	return false
}

// reset restores the cache to its freshly constructed state (every set
// untouched, counters zeroed), keeping the arena's capacity for the next run;
// the Sim pool relies on it.
func (c *cache) reset() {
	clear(c.block)
	c.slots = c.slots[:0]
	c.clock = 0
	c.mruSlot = -1
	c.hits = 0
	c.misses = 0
}

// HitRate returns the fraction of accesses that hit.
func (c *cache) HitRate() float64 {
	total := c.hits + c.misses
	if total == 0 {
		return 0
	}
	return float64(c.hits) / float64(total)
}

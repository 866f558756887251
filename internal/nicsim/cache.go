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
	// tags and lru are flat [sets*ways] arrays indexed set*ways+way — one
	// backing allocation and one bounds check per set scan instead of a
	// pointer chase through per-set slices. Valid tag entries are ≥ 0;
	// lru holds recency counters (higher = more recent).
	tags  []int64
	lru   []uint64
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
	c.tags = make([]int64, sets*ways)
	c.lru = make([]uint64, sets*ways)
	for i := range c.tags {
		c.tags[i] = -1
	}
	return c
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
		c.lru[c.mruSlot] = c.clock
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
	base := set * c.ways
	row := c.tags[base : base+c.ways]
	for w, t := range row {
		if t == tag {
			c.lru[base+w] = c.clock
			c.hits++
			c.mruLine, c.mruSlot = line, base+w
			return true
		}
	}
	c.misses++
	// Evict LRU way.
	victim := base
	oldest := c.lru[base]
	for i := base + 1; i < base+c.ways; i++ {
		if c.lru[i] < oldest {
			oldest = c.lru[i]
			victim = i
		}
	}
	c.tags[victim] = tag
	c.lru[victim] = c.clock
	c.mruLine, c.mruSlot = line, victim
	return false
}

// reset restores the cache to its freshly constructed state (all lines
// invalid, counters zeroed) without reallocating; the Sim pool relies on it.
func (c *cache) reset() {
	for i := range c.tags {
		c.tags[i] = -1
	}
	for i := range c.lru {
		c.lru[i] = 0
	}
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

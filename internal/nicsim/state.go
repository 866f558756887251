package nicsim

import (
	"math/bits"
	"math/rand"

	"clara/internal/cir"
	"clara/internal/lnic"
)

// mapEntry is one exact-match table entry. Index is stable from insertion
// and anchors the entry's simulated memory address.
type mapEntry struct {
	idx int
	v   [2]uint64
}

// mapState is an exact-match key/value table keyed by opaque key handles
// (flow hashes).
type mapState struct {
	obj      cir.StateObj
	region   int
	base     uint64
	entries  map[uint64]*mapEntry
	order    []uint64 // insertion order, for FIFO replacement when full
	nextIdx  int
	replaced int
}

func newMapState(obj cir.StateObj, region int, base uint64) *mapState {
	return &mapState{obj: obj, region: region, base: base, entries: map[uint64]*mapEntry{}}
}

// entryAddr returns the simulated address of entry idx.
func (m *mapState) entryAddr(idx int) uint64 {
	per := uint64(m.obj.KeySize + m.obj.ValueSize)
	if per == 0 {
		per = 1
	}
	return m.base + uint64(idx)*per
}

// bucketAddr returns the simulated address of the hash bucket for a key.
func (m *mapState) bucketAddr(key uint64) uint64 {
	cap := uint64(m.obj.Capacity)
	if cap == 0 {
		cap = 1
	}
	return m.base + (key%cap)*8%uint64(m.obj.Bytes()+1)
}

func (m *mapState) lookup(key uint64) (*mapEntry, bool) {
	e, ok := m.entries[key]
	return e, ok
}

func (m *mapState) put(key uint64, v0, v1 uint64) *mapEntry {
	if e, ok := m.entries[key]; ok {
		e.v[0], e.v[1] = v0, v1
		return e
	}
	if m.obj.Capacity > 0 && len(m.entries) >= m.obj.Capacity {
		// FIFO replacement of the oldest live entry.
		for len(m.order) > 0 {
			victim := m.order[0]
			m.order = m.order[1:]
			if _, ok := m.entries[victim]; ok {
				delete(m.entries, victim)
				m.replaced++
				break
			}
		}
	}
	e := &mapEntry{idx: m.nextIdx, v: [2]uint64{v0, v1}}
	m.nextIdx++
	m.entries[key] = e
	m.order = append(m.order, key)
	return e
}

func (m *mapState) del(key uint64) {
	delete(m.entries, key)
}

// reset restores the table to its freshly constructed (empty) state without
// reallocating the bucket map or the order ring; the Sim pool relies on it.
func (m *mapState) reset() {
	clear(m.entries)
	m.order = m.order[:0]
	m.nextIdx = 0
	m.replaced = 0
}

// lpmRule is one route of the LPM table.
type lpmRule struct {
	prefix uint32
	plen   uint8
	nh     uint32
}

// lpmState is a longest-prefix-match table. The functional lookup is exact
// LPM semantics; the *cost* of a lookup is charged separately by the env as
// a linear match/action scan over the table's memory (the software
// implementation the paper's LPM NF uses when the flow cache is off).
//
// The rules live in one open-addressing table keyed by (plen, prefix):
// keys[i] is lpmKey(prefix, plen), never 0, so 0 marks an empty slot, and
// nhs[i] is that rule's next hop. The table is a power of two in size, probed
// linearly from a Fibonacci hash and kept at most half full; newLPMState
// presizes it for the rules it synthesizes. lens is the set of installed
// prefix lengths (bit plen), which lookup walks longest first.
type lpmState struct {
	obj    cir.StateObj
	region int
	base   uint64
	keys   []uint64
	nhs    []uint32
	shift  uint   // 64 - log2(len(keys)): the hash keeps the product's top bits
	n      int    // live rules: distinct (plen, prefix) pairs
	lens   uint64 // bit plen set when a rule of that length is installed
}

func newLPMState(obj cir.StateObj, region int, base uint64, entries int, seed int64) *lpmState {
	l := &lpmState{obj: obj, region: region, base: base}
	l.resize(lpmTableSize(entries + 1))
	rng := rand.New(rand.NewSource(seed))
	// Default route so every packet forwards (next hop 0).
	l.install(lpmRule{prefix: 0, plen: 0, nh: 0})
	// Rules concentrated where the workload generator places destinations
	// (192.168.0.0/16), plus scattered internet-style prefixes. Duplicates
	// are retried so the table holds exactly `entries` rules — the scan cost
	// (and the paper's Figure 3a x-axis) is defined by live entries.
	for attempts := 0; l.entries() < entries && attempts < entries*100+10000; attempts++ {
		var r lpmRule
		if attempts%4 == 0 {
			plen := uint8(17 + rng.Intn(14)) // /17../30 inside 192.168/16
			addr := 0xc0a80000 | uint32(rng.Intn(1<<16))
			r = lpmRule{prefix: mask(addr, plen), plen: plen, nh: uint32(rng.Intn(16))}
		} else {
			plen := uint8(8 + rng.Intn(21)) // /8../28 anywhere
			addr := rng.Uint32()
			r = lpmRule{prefix: mask(addr, plen), plen: plen, nh: uint32(rng.Intn(16))}
		}
		l.install(r)
	}
	return l
}

// lpmTableSize is the smallest power-of-two table, at least 16 slots, that
// holds n rules at most half full.
func lpmTableSize(n int) int {
	size := 16
	for size < 2*n {
		size *= 2
	}
	return size
}

// lpmKey packs a rule's identity into a nonzero table key: plen+1 above the
// 32 prefix bits.
func lpmKey(prefix uint32, plen uint8) uint64 {
	return uint64(plen+1)<<32 | uint64(prefix)
}

// find returns the index holding key k, or the empty index where k belongs.
func (l *lpmState) find(k uint64) int {
	m := len(l.keys) - 1
	i := int(k * 0x9e3779b97f4a7c15 >> l.shift)
	for l.keys[i] != 0 && l.keys[i] != k {
		i = (i + 1) & m
	}
	return i
}

// resize rehashes the table into size slots.
func (l *lpmState) resize(size int) {
	keys, nhs := l.keys, l.nhs
	l.keys, l.nhs = make([]uint64, size), make([]uint32, size)
	l.shift = uint(64 - bits.TrailingZeros(uint(size)))
	for i, k := range keys {
		if k != 0 {
			j := l.find(k)
			l.keys[j], l.nhs[j] = k, nhs[i]
		}
	}
}

// install adds r, or overwrites the next hop of the rule with r's plen and
// prefix; only a new (plen, prefix) pair counts toward entries.
func (l *lpmState) install(r lpmRule) {
	if 2*(l.n+1) > len(l.keys) {
		l.resize(lpmTableSize(l.n + 1))
	}
	k := lpmKey(r.prefix, r.plen)
	i := l.find(k)
	if l.keys[i] == 0 {
		l.keys[i] = k
		l.n++
		l.lens |= 1 << r.plen
	}
	l.nhs[i] = r.nh
}

// lookup returns the next hop for addr, or ^uint64(0) on miss.
func (l *lpmState) lookup(addr uint32) uint64 {
	for lens := l.lens; lens != 0; {
		plen := uint8(bits.Len64(lens) - 1)
		lens &^= 1 << plen
		k := lpmKey(mask(addr, plen), plen)
		if i := l.find(k); l.keys[i] == k {
			return uint64(l.nhs[i])
		}
	}
	return ^uint64(0)
}

// entries returns the live rule count (drives the scan cost).
func (l *lpmState) entries() int { return l.n }

func mask(addr uint32, plen uint8) uint32 {
	if plen == 0 {
		return 0
	}
	return addr &^ (1<<(32-uint32(plen)) - 1)
}

// sketchState is a count-min sketch with lnic.SketchRows rows.
type sketchState struct {
	obj    cir.StateObj
	region int
	base   uint64
	rows   int
	width  int
	counts [][]uint32
}

func newSketchState(obj cir.StateObj, region int, base uint64) *sketchState {
	rows := lnic.SketchRows
	width := obj.Capacity / rows
	if width < 16 {
		width = 16
	}
	s := &sketchState{obj: obj, region: region, base: base, rows: rows, width: width}
	s.counts = make([][]uint32, rows)
	for i := range s.counts {
		s.counts[i] = make([]uint32, width)
	}
	return s
}

func (s *sketchState) slot(row int, key uint64) int {
	h := key*0x9e3779b97f4a7c15 + uint64(row)*0xbf58476d1ce4e5b9
	h ^= h >> 31
	return int(h % uint64(s.width))
}

func (s *sketchState) slotAddr(row, slot int) uint64 {
	return s.base + uint64(row*s.width+slot)*uint64(s.obj.ValueSize)
}

// add increments the key's counters and returns the min estimate after.
func (s *sketchState) add(key uint64) uint64 {
	est := ^uint64(0)
	for r := 0; r < s.rows; r++ {
		i := s.slot(r, key)
		s.counts[r][i]++
		if v := uint64(s.counts[r][i]); v < est {
			est = v
		}
	}
	return est
}

// reset zeroes every counter, restoring the freshly constructed state.
func (s *sketchState) reset() {
	for _, row := range s.counts {
		for i := range row {
			row[i] = 0
		}
	}
}

// read returns the min estimate without modifying the sketch.
func (s *sketchState) read(key uint64) uint64 {
	est := ^uint64(0)
	for r := 0; r < s.rows; r++ {
		if v := uint64(s.counts[r][s.slot(r, key)]); v < est {
			est = v
		}
	}
	return est
}

// arrayState is a direct-indexed counter/value array.
type arrayState struct {
	obj    cir.StateObj
	region int
	base   uint64
	vals   []uint64
}

func newArrayState(obj cir.StateObj, region int, base uint64) *arrayState {
	n := obj.Capacity
	if n < 1 {
		n = 1
	}
	return &arrayState{obj: obj, region: region, base: base, vals: make([]uint64, n)}
}

func (a *arrayState) idx(i uint64) int { return int(i % uint64(len(a.vals))) }

// preload deterministically pre-installs n values (backend IDs, weights)
// from the state-seed stream; Sim.initRun calls it on fresh and recycled
// arrays alike, so a recycled array is value-identical to a fresh one.
func (a *arrayState) preload(n int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n && i < len(a.vals); i++ {
		a.vals[i] = uint64(rng.Intn(256))
	}
}

// reset zeroes the array; the caller re-runs preload as needed.
func (a *arrayState) reset() {
	for i := range a.vals {
		a.vals[i] = 0
	}
}

func (a *arrayState) addr(i int) uint64 {
	return a.base + uint64(i)*uint64(a.obj.ValueSize)
}

// patternState holds a DPI pattern automaton.
type patternState struct {
	obj    cir.StateObj
	region int
	base   uint64
	ac     *acAutomaton
}

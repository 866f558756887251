package nicsim

import (
	"context"
	"path/filepath"
	"runtime"
	"testing"

	"clara/internal/benchguard"
	"clara/internal/lnic"
	"clara/internal/nf"
)

// Micro-benchmarks for the two data structures the packet loop leans on
// hardest — the set-associative region cache and the earliest-free thread
// heap — in the access shapes the simulator actually produces. The sibling
// guard test (TestNicsimBenchGuard) pins them against
// testdata/bench_baseline.json so a regression in either structure fails CI
// even when the end-to-end SimRun baseline's noise headroom would hide it.

// BenchmarkCacheAccessHit is the hit-heavy shape: a flow table whose working
// set fits the cache (Zipf-skewed traffic revisiting hot lines). The EMEM
// geometry (3 MB, 64 B lines) lands on 6144 sets — not a power of two — so
// this also covers the reciprocal set-index path.
func BenchmarkCacheAccessHit(b *testing.B) {
	c := newCache(3<<20, 64)
	// 512 hot lines spread across sets; warmed before measuring.
	const hot = 512
	for i := 0; i < hot; i++ {
		c.access(uint64(i) * 64)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.access(uint64(i%hot) * 64)
	}
}

// BenchmarkCacheAccessMiss is the miss-heavy shape: a streaming scan far
// beyond capacity, so every access evicts (the large-table thrash that
// drives Clara's prediction error in §3.2).
func BenchmarkCacheAccessMiss(b *testing.B) {
	c := newCache(3<<20, 64)
	span := uint64(c.sets*c.ways) * 64 * 4 // 4x capacity
	b.ReportAllocs()
	b.ResetTimer()
	var addr uint64
	for i := 0; i < b.N; i++ {
		c.access(addr % span)
		addr += 64 * 977 // odd line stride: misses without set aliasing
	}
}

// BenchmarkThreadHeapFix is the dispatch shape: 64 NPU threads (the
// Netronome pool), each booking advancing the earliest-free thread by a
// pseudo-random service time, exactly the min-then-book pattern the packet
// loop performs once per packet.
func BenchmarkThreadHeapFix(b *testing.B) {
	free := make([]float64, 64)
	h := newThreadHeap(free)
	rng := uint64(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		min := h.ents[0].free
		h.book(min + 100 + float64(rng%4096))
	}
}

// BenchmarkThreadHeapTieStorm is the adversarial shape: every booking lands
// on the same free time, so the heap is all ties and ordering is decided
// purely by the index tie-break (the case that keeps dispatch byte-identical
// to the linear scan it replaced).
func BenchmarkThreadHeapTieStorm(b *testing.B) {
	free := make([]float64, 64)
	h := newThreadHeap(free)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Advance in coarse epochs: within an epoch all 64 threads collide
		// on one timestamp.
		epoch := float64(i / 64)
		h.book(epoch + 1)
	}
}

// newContextConfig is the simulator configuration BenchmarkNewContext and
// TestNewContextAllocs build: the named corpus NF on Netronome with its
// default placement and preloads.
func newContextConfig(tb testing.TB, spec nf.Spec) Config {
	tb.Helper()
	prog := spec.MustCompile()
	nic := lnic.Netronome()
	return Config{NIC: nic, Prog: prog, Place: DefaultPlacement(nic, prog),
		Preload: spec.PreloadEntries, Seed: 11}
}

// newContextCases are the construction shapes: a map-only NF, and a 10k-rule
// LPM table, whose synthesis dominates its construction.
var newContextCases = []struct {
	name string
	spec func() nf.Spec
}{
	{"firewall", func() nf.Spec { return nf.Firewall(65536) }},
	{"lpm10k", func() nf.Spec { return nf.LPM(10000) }},
}

// BenchmarkNewContext measures building a simulator: validation, the
// compiled engine, price tables, caches and the state objects with their
// preloads. perfbench's simulate workload pays it for every case.
func BenchmarkNewContext(b *testing.B) {
	for _, c := range newContextCases {
		b.Run(c.name, func(b *testing.B) {
			cfg := newContextConfig(b, c.spec())
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := NewContext(ctx, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// newContextAllocsLPM10k bounds NewContext's allocations on LPM-10k. The
// flat rule table allocates its slot arrays once, presized for the rules it
// synthesizes, and the whole construction measures 34 allocations; the
// map-of-maps table it replaced grew one Go map per prefix length and the
// rule list by appends, 466 allocations in all.
const newContextAllocsLPM10k = 48

// TestNewContextAllocs keeps the LPM-10k simulator build from going back to
// per-rule-growth allocation.
func TestNewContextAllocs(t *testing.T) {
	cfg := newContextConfig(t, nf.LPM(10000))
	ctx := context.Background()
	n := testing.AllocsPerRun(5, func() {
		if _, err := NewContext(ctx, cfg); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("NewContext on LPM-10k: %.0f allocations", n)
	if n > newContextAllocsLPM10k {
		t.Errorf("NewContext on LPM-10k allocates %.0f times, want <= %d", n, newContextAllocsLPM10k)
	}
}

// newContextBytesFirewall bounds the bytes NewContext allocates for the
// Netronome firewall. Its EMEM cache used to be allocated whole at
// construction — 786 KB of tags and recency counters, 794 KB per build in
// all; with storage appended per touched set, construction keeps only the
// cache's 24 KB per-set block index and measures 32.6 KB. The figure is
// deterministic; the bound leaves about 23% headroom.
const newContextBytesFirewall = 40_000

// TestNewContextBytes keeps simulator construction from allocating cache
// storage for sets no run has touched yet.
func TestNewContextBytes(t *testing.T) {
	cfg := newContextConfig(t, nf.Firewall(65536))
	ctx := context.Background()
	build := func() {
		if _, err := NewContext(ctx, cfg); err != nil {
			t.Fatal(err)
		}
	}
	build()
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		build()
	}
	runtime.ReadMemStats(&after)
	perRun := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("NewContext on firewall: %d B/op", perRun)
	if perRun > newContextBytesFirewall {
		t.Errorf("NewContext on firewall allocates %d B/op, want <= %d", perRun, newContextBytesFirewall)
	}
}

// nicsimGuarded registers this package's guarded micro-benchmarks; see the
// root package's TestBenchGuard for the end-to-end loops.
var nicsimGuarded = map[string]func(*testing.B){
	"BenchmarkCacheAccessHit":     BenchmarkCacheAccessHit,
	"BenchmarkCacheAccessMiss":    BenchmarkCacheAccessMiss,
	"BenchmarkThreadHeapFix":      BenchmarkThreadHeapFix,
	"BenchmarkThreadHeapTieStorm": BenchmarkThreadHeapTieStorm,
}

// TestNicsimBenchGuard enforces the micro-benchmark baselines (BENCH_GUARD=1,
// same gate and tolerances as the root guard — see internal/benchguard).
func TestNicsimBenchGuard(t *testing.T) {
	benchguard.Enforce(t, filepath.Join("testdata", "bench_baseline.json"), nicsimGuarded)
}

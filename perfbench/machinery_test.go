package main

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"clara/internal/nicsim"
)

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3} // unsorted on purpose
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {50, 3}, {100, 5}, {25, 2}, {90, 4.6},
	} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !reflect.DeepEqual(xs, []float64{5, 1, 4, 2, 3}) {
		t.Errorf("percentile reordered its input: %v", xs)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples is not NaN")
	}
}

func TestMinSamplesLeavesTenBeyond(t *testing.T) {
	for _, c := range []struct {
		p    float64
		want int
	}{{90, 100}, {99, 1000}, {50, 20}} {
		n := minSamples(c.p)
		if n != c.want {
			t.Errorf("minSamples(%v) = %d, want %d", c.p, n, c.want)
		}
		if beyond(n, c.p) < minBeyond || beyond(n-1, c.p) >= minBeyond {
			t.Errorf("minSamples(%v) = %d is not the fewest with %d beyond", c.p, n, minBeyond)
		}
	}
	var l latency
	for i := 0; i < 99; i++ {
		l.add(float64(i))
	}
	if !math.IsNaN(l.tailAt(90)) {
		t.Error("p90 of 99 samples is quoted, though fewer than 10 lie beyond it")
	}
	l.add(99)
	if got := l.tailAt(90); math.Abs(got-89.1) > 1e-9 {
		t.Errorf("p90 of 0..99 = %v, want 89.1", got)
	}
}

func TestScheduleIsAFunctionOfItsSeed(t *testing.T) {
	mix := []mixEntry{{0.6, 50}, {0.3, 0}, {0.1, 1}}
	a := schedule(7, 400, 2*time.Second, mix, 1.01)
	b := schedule(7, 400, 2*time.Second, mix, 1.01)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two schedules")
	}
	if reflect.DeepEqual(a, schedule(8, 400, 2*time.Second, mix, 1.01)) {
		t.Fatal("two seeds gave the same schedule")
	}
	if len(a) < 600 || len(a) > 1000 {
		t.Fatalf("%d arrivals in 2 s at 400/s", len(a))
	}
	fresh := 0
	for i, x := range a {
		if x.Due >= 2*time.Second || (i > 0 && x.Due < a[i-1].Due) {
			t.Fatalf("arrival %d due at %v is out of order or past the run", i, x.Due)
		}
		switch x.Kind {
		case 0:
			if x.Key < 0 || x.Key >= 50 {
				t.Fatalf("key %d outside a 50-key catalogue", x.Key)
			}
		case 1:
			if x.Key != fresh {
				t.Fatalf("fresh key %d, want %d", x.Key, fresh)
			}
			fresh++
		case 2:
			if x.Key != 0 {
				t.Fatalf("key %d in a one-key catalogue", x.Key)
			}
		}
	}
}

func TestSeedForSeparatesStreams(t *testing.T) {
	if seedFor(1, "a", 0) != seedFor(1, "a", 0) {
		t.Fatal("seedFor is not deterministic")
	}
	seen := map[int64]bool{}
	for _, s := range []int64{1, 2} {
		for _, stream := range []string{"a", "b"} {
			for i := 0; i < 3; i++ {
				v := seedFor(s, stream, i)
				if seen[v] || v < 0 {
					t.Fatalf("seedFor(%d, %q, %d) = %d repeats or is negative", s, stream, i, v)
				}
				seen[v] = true
			}
		}
	}
}

// spanTree is a root over [0, 100) with two overlapping children, A [10, 30)
// and B [20, 50), a grandchild G [12, 18) under A, and a child C that
// overruns the root, [90, 120).
func spanTree() []span {
	at := func(id, parent int, name string, a, b time.Duration) span {
		return span{ID: id, Parent: parent, Req: 1, Name: name, Start: a, End: b}
	}
	return []span{
		at(1, 0, "root", 0, 100),
		at(2, 1, "A", 10, 30),
		at(3, 1, "B", 20, 50),
		at(4, 2, "G", 12, 18),
		at(5, 1, "C", 90, 120),
	}
}

func TestSelfTimesCountOverlapOnce(t *testing.T) {
	got := selfTimes(spanTree())
	// root: 100 minus the union of A, B and the clipped C (10+30+10 → 50).
	want := map[int]time.Duration{1: 50, 2: 14, 3: 30, 4: 6, 5: 30}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
}

func TestExclusiveTimesSplitTheRoot(t *testing.T) {
	got := exclusiveTimes(spanTree())
	// [0,10) root, [10,12) A, [12,18) G, [18,20) A, [20,30) A and B half
	// each, [30,50) B, [50,90) root, [90,100) C; C's overrun is dropped.
	want := map[int]time.Duration{1: 50, 2: 9, 3: 25, 4: 6, 5: 10}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("exclusiveTimes = %v, want %v", got, want)
	}
	var sum time.Duration
	for _, d := range got {
		sum += d
	}
	if sum != 100 {
		t.Fatalf("exclusive times add up to %v, not the root's 100", sum)
	}
	st := statsByName(spanTree())
	if st["A"].n != 1 || st["A"].self != 14 || st["A"].exclusive != 9 || st["A"].dur != 20 {
		t.Fatalf("statsByName(A) = %+v", *st["A"])
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	tr.end(tr.begin("x", 0, 1))
	if tr.snapshot() != nil {
		t.Fatal("a nil tracer returned spans")
	}
	tr = newTracer()
	root := tr.begin("root", 0, 1)
	tr.end(tr.begin("child", root, 1))
	tr.end(root)
	s := tr.snapshot()
	if len(s) != 2 || s[1].Parent != s[0].ID || s[1].Start < s[0].Start || s[1].End > s[0].End {
		t.Fatalf("spans %+v do not nest", s)
	}
}

func sampleResult() *nicsim.Result {
	return &nicsim.Result{
		Packets: []nicsim.PacketResult{
			{Latency: 120, Verdict: 1, Breakdown: nicsim.Breakdown{Compute: 80, Mem: 40}},
			{Latency: 95.5, Verdict: 0, Breakdown: nicsim.Breakdown{Compute: 70, Fixed: 25.5}},
		},
		CacheHitRate:     map[string]float64{"emem": 0.5, "dram": 0.25},
		FlowCacheHitRate: math.NaN(),
	}
}

func TestDigestComparesEveryField(t *testing.T) {
	ref := digest(sampleResult())
	if digest(sampleResult()) != ref {
		t.Fatal("equal results have different digests")
	}
	nan := sampleResult()
	nan.FlowCacheHitRate = math.Float64frombits(0x7ff8000000000abc) // another NaN payload
	if digest(nan) != ref {
		t.Fatal("NaN payloads change the digest")
	}
	for name, mutate := range map[string]func(*nicsim.Result){
		"latency":   func(r *nicsim.Result) { r.Packets[1].Latency = math.Nextafter(95.5, 96) },
		"verdict":   func(r *nicsim.Result) { r.Packets[0].Verdict = 2 },
		"breakdown": func(r *nicsim.Result) { r.Packets[0].Breakdown.Queue = 1 },
		"count":     func(r *nicsim.Result) { r.Packets = r.Packets[:1] },
		"errors":    func(r *nicsim.Result) { r.Errors = 1 },
		"cache":     func(r *nicsim.Result) { r.CacheHitRate["emem"] = 0.51 },
		"region":    func(r *nicsim.Result) { r.CacheHitRate["imem"] = 0 },
		"flowcache": func(r *nicsim.Result) { r.FlowCacheHitRate = 0.9 },
	} {
		r := sampleResult()
		mutate(r)
		if digest(r) == ref {
			t.Errorf("changing the %s leaves the digest unchanged", name)
		}
	}
	want := [][32]byte{ref, ref}
	if !digestsMatch([]*nicsim.Result{sampleResult(), sampleResult()}, want) {
		t.Error("matching tenants do not match")
	}
	other := sampleResult()
	other.Errors = 3
	for name, got := range map[string][]*nicsim.Result{
		"short":    {sampleResult()},
		"nil":      {sampleResult(), nil},
		"mismatch": {sampleResult(), other},
	} {
		if digestsMatch(got, want) {
			t.Errorf("digestsMatch accepts a %s tenant list", name)
		}
	}
}

func TestLoopSplitAttributesByPrefix(t *testing.T) {
	samples := []stackSample{
		{frames: []string{cirPkg + "(*Compiled).Run.func3", nicsimPkg + "(*exec).VCall"}, count: 2},
		{frames: []string{nicsimPkg + "(*threadHeap).siftDown", nicsimPkg + "(*Sim).RunContext"}, count: 1},
		{frames: []string{"runtime.memmove", cirPkg + "(*Compiled).Run"}, count: 1},
	}
	got := loopSplit(samples)
	for name, want := range map[string]float64{
		"loop.dispatch_pct":   50, // flat: the third sample's cir frame is not its leaf
		"loop.vcall_pct":      50,
		"loop.threadheap_pct": 25,
		"loop.cache_pct":      0,
	} {
		if got[name] != want {
			t.Errorf("%s = %v, want %v", name, got[name], want)
		}
	}
	if len(got) != len(loopRules) {
		t.Errorf("loopSplit reports %d shares for %d rules", len(got), len(loopRules))
	}
}

//go:noinline
func spin(until time.Time) (x uint64) {
	for time.Now().Before(until) {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

func TestParseProfileReadsACapturedProfile(t *testing.T) {
	var sink uint64
	raw, err := captureProfile(func() error {
		sink = spin(time.Now().Add(300 * time.Millisecond))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = sink
	samples, err := parseProfile(raw)
	if err != nil {
		t.Fatal(err)
	}
	var total, inSpin int64
	for _, s := range samples {
		total += s.count
		for _, f := range s.frames {
			if strings.HasSuffix(f, ".spin") {
				inSpin += s.count
				break
			}
		}
	}
	if total < 5 || inSpin*2 < total {
		t.Fatalf("%d of %d samples in spin; the decoder lost the stacks", inSpin, total)
	}
	if _, err := parseProfile([]byte("not a profile")); err == nil {
		t.Fatal("parseProfile accepted garbage")
	}
}

func TestJSONCloseToleratesLastBits(t *testing.T) {
	a := []byte(`{"MeanCycles":6126.667294,"Classes":[{"EnergyNJ":4274.35,"Verdict":1}]}`)
	for _, c := range []struct {
		b    string
		want bool
	}{
		{`{"Classes":[{"Verdict":1,"EnergyNJ":4274.349999999999}],"MeanCycles":6126.667294}`, true},
		{`{"MeanCycles":6126.667294,"Classes":[{"EnergyNJ":4274.36,"Verdict":1}]}`, false},
		{`{"MeanCycles":6126.667294,"Classes":[{"EnergyNJ":4274.35,"Verdict":2}]}`, false},
		{`{"MeanCycles":6126.667294,"Classes":[]}`, false},
		{`{"MeanCycles":"6126.667294","Classes":[{"EnergyNJ":4274.35,"Verdict":1}]}`, false},
		{`{"MeanCycles":6126.667294,"Classes":[{"EnergyNJ":4274.35,"Verdict":1}],"x":null}`, false},
	} {
		if got := jsonClose(a, []byte(c.b), answerTolerance); got != c.want {
			t.Errorf("jsonClose(%s) = %v, want %v", c.b, got, c.want)
		}
	}
}

func TestCheckAnswers(t *testing.T) {
	ans := func(key, cache, body string) served { return served{key: key, cache: cache, body: []byte(body)} }
	res := []served{
		ans("k", "miss", `{"x":1.5}`),
		ans("k", "hit", `{"x":1.5}`),
		ans("k", "miss", `{"x":1.5000000000000002}`), // recomputed after an eviction
		ans("k", "hit", `{"x":1.5000000000000002}`),
		ans("k", "", `{"x":1.5}`),  // a job
		ans("j", "hit", `{"y":2}`), // hit seen before its computing request
		ans("j", "shared", `{"y":2}`),
	}
	if v := checkAnswers(res); v != 1 {
		t.Errorf("%d keys with variants, want 1", v)
	}
	for i, s := range res {
		if s.fail != "" {
			t.Errorf("answer %d failed: %s", i, s.fail)
		}
	}
	bad := []served{
		ans("k", "miss", `{"x":1.5}`),
		ans("k", "hit", `{"x":1.5000000000000002}`), // a hit nobody computed
		ans("k", "miss", `{"x":1.6}`),
		{key: "k", cache: "miss", fail: "status 503"},
	}
	checkAnswers(bad)
	for i, want := range []bool{false, true, true, true} {
		if (bad[i].fail != "") != want {
			t.Errorf("answer %d: fail = %q, want failed %v", i, bad[i].fail, want)
		}
	}
}

func TestClassSummaryUsesEachClassPercentile(t *testing.T) {
	var rounds []round
	for i := 1; i <= 5; i++ {
		r := newRound()
		r.add("a/0", float64(i))   // 1..5 ms, median 3
		r.add("a/1", float64(4*i)) // 4..20 ms, median 12
		r.Units["a/1"] = 100       // packets per call
		rounds = append(rounds, r)
	}
	typical, costly, rate := classSummary(rounds, classNames("a", 2), 50)
	if math.Abs(typical-6) > 1e-12 || costly != 12 {
		t.Fatalf("typical %v, costly %v; want the geometric mean 6 and the larger median 12", typical, costly)
	}
	// 5 calls of a/0 (no units: calls count) and 500 packets of a/1, in
	// 5*3 + 5*12 ms at the medians.
	if want := 505 / 0.075; math.Abs(rate-want) > 1e-9 {
		t.Fatalf("rate %v, want %v", rate, want)
	}
	if _, _, r := classSummary(rounds, []string{"a/0", "missing"}, 50); !math.IsNaN(r) {
		t.Fatalf("a class without calls gave rate %v, want NaN", r)
	}
	var many []round
	for _, ms := range []float64{1, 8, 1, 1, 2, 1, 1, 4, 1} {
		r := newRound()
		r.add(fmt.Sprintf("b/%d", len(many)), ms)
		many = append(many, r)
	}
	if _, costly, _ := classSummary(many, classNames("b", 9), 50); math.Abs(costly-4) > 1e-12 {
		t.Fatalf("costliest quarter of 9 classes = %v, want 4, the geometric mean of 2, 4 and 8", costly)
	}
	if g := geomean([]float64{1, 4, 16}); math.Abs(g-4) > 1e-12 {
		t.Fatalf("geomean = %v, want 4", g)
	}
}

func TestSetupFloorSumsEachPieceFastestTime(t *testing.T) {
	reps := [][]float64{
		{3, 1, 5},
		{2, 4, 6},
		{4, 2}, // a set-up cut short counts where it was timed
	}
	if got := setupFloor(reps); got != 2+1+5 {
		t.Fatalf("setupFloor = %v, want 8", got)
	}
	if got := setupFloor(nil); got != 0 {
		t.Fatalf("setupFloor of no set-ups = %v", got)
	}
}

func TestKindRoundClassesByKindAndDeferredEndpoint(t *testing.T) {
	res := []served{
		{kind: kindPredict, key: "predict\x00{}", latencyMs: 1},
		{kind: kindMeasure, key: "measure\x00{}", latencyMs: 9},
		{kind: kindJob, key: "advise\x00{}", latencyMs: 4},
		{kind: kindJob, key: "predict\x00{}", latencyMs: 2},
		{kind: kindPredict, key: "predict\x00{}", latencyMs: 3},
		{kind: kindMeasure, latencyMs: 100, fail: "status 503"},
	}
	r, syncClasses, jobClasses := kindRound(res)
	if !reflect.DeepEqual(syncClasses, []string{"measure", "predict"}) ||
		!reflect.DeepEqual(jobClasses, []string{"job/advise", "job/predict"}) {
		t.Fatalf("classes %v and %v", syncClasses, jobClasses)
	}
	if !reflect.DeepEqual(r.Ms["predict"], []float64{1, 3}) || !reflect.DeepEqual(r.Ms["measure"], []float64{9}) {
		t.Fatalf("round %v", r.Ms)
	}
}

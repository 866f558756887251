package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"clara"
	"clara/internal/budget"
	"clara/internal/nf"
	"clara/internal/serve"
)

// The serve workload is an open loop: seeded Poisson arrivals at
// defaultServeRate requests per second, timed from when each was due.
// --serve-rate overrides the rate, which is how the handler's capacity was
// probed in 10 s runs on a 2-vCPU Xeon VM: at 2000/s nothing is refused and
// the sync p99 is about 10 ms; at 3000/s the backlog grows, the sync p50
// passes 20 ms and a tenth of the requests (jobs) are shed with 503. 500/s,
// a quarter of the highest rate that kept up, keeps the backlog flat, so the
// latencies measure the server rather than a queue the load generator built.
const (
	defaultServeRate = 500.0
	// serveZipf is the popularity exponent of catalogue keys; close to 1, the
	// head is flat enough that a 10 s run touches more distinct results than
	// the server's default 1024-entry result cache holds.
	serveZipf = 1.01
	// serveSpecs is the number of workload specs in the catalogue: with the
	// library's 14 NFs and their targets, about 4600 predict and advise keys,
	// so hits, misses and evictions all occur.
	serveSpecs = 96
	// Tail percentiles of synchronous requests and of jobs, printed besides
	// the end-to-end metrics. On a shared host whose neighbours stall it for
	// milliseconds at a time, the sync p95 of a run moves by a quarter to
	// three quarters between runs, so the end-to-end tails are the medians
	// of the costliest request classes instead (see runServe).
	serveSyncP = 95
	serveJobP  = 90
	// pollEvery is how often a submitted job is polled.
	pollEvery = 500 * time.Microsecond
)

// Request kinds of the mix, in the order of kindNames.
const (
	kindPredict = iota
	kindAdvise
	kindInline
	kindMeasure
	kindColocate
	kindPartial
	kindJob
)

var kindNames = []string{"predict", "advise", "inline", "measure", "colocate", "partial", "job"}

// serveInputs is everything a serve pass needs besides a server.
type serveInputs struct {
	library  map[string]string
	schedule []arrival
	// bodies[kind][key] is the rendered request of a catalogue entry; inline
	// requests are rendered per arrival.
	bodies [][]serveReq
	inline []serveReq
}

// serveReq is one request: the path it goes to, its body, and the key under
// which equal requests must get equal answers.
type serveReq struct {
	path  string
	body  []byte
	check string
	// src is the inline NF source (inline requests only).
	src string
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // request structs always marshal
	}
	return b
}

func syncReq(endpoint string, r serve.Request) serveReq {
	body := mustJSON(r)
	return serveReq{path: "/v1/" + endpoint, body: body, check: endpoint + "\x00" + string(body)}
}

// serveLibrary is the NF library: the bundled examples plus the corpus.
func serveLibrary() (map[string]string, error) {
	lib := map[string]string{}
	paths, err := filepath.Glob(filepath.Join("examples", "*.nf"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no examples/*.nf: run from the root of a checkout")
	}
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		lib["example-"+strings.TrimSuffix(filepath.Base(p), ".nf")] = string(src)
	}
	for name, spec := range nf.All() {
		lib[name] = spec.Source
	}
	return lib, nil
}

// serveCatalogue builds the request catalogue and the seeded schedule.
func serveCatalogue(seed int64, rate float64, dur time.Duration) (*serveInputs, error) {
	lib, err := serveLibrary()
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(lib))
	for n := range lib {
		names = append(names, n)
	}
	sort.Strings(names)
	r := rand.New(rand.NewSource(seedFor(seed, "serve", 0)))
	specs := make([]string, serveSpecs)
	for i := range specs {
		specs[i] = workloadSpec(r)
	}
	in := &serveInputs{library: lib, bodies: make([][]serveReq, len(kindNames))}
	add := func(kind int, q serveReq) { in.bodies[kind] = append(in.bodies[kind], q) }
	for _, n := range names {
		for _, t := range clara.Targets() {
			if !servePredictable(lib[n], t) {
				continue
			}
			for _, s := range specs {
				add(kindPredict, syncReq("predict", serve.Request{NF: n, Target: t, Workload: s}))
			}
		}
		for _, s := range specs {
			add(kindAdvise, syncReq("advise", serve.Request{NF: n, Workload: s}))
		}
	}
	for _, n := range []string{"firewall", "lpm", "nat", "syncookie"} {
		for k := 0; k < 4; k++ {
			spec := fmt.Sprintf("packets=512,flows=%d,size=%d,tcp=0.8,rate=60000,seed=%d",
				1<<(6+2*k), 64+300*k, seedFor(seed, "serve-measure", k)%1000)
			add(kindMeasure, syncReq("measure", serve.Request{NF: n, Target: "netronome", Workload: spec,
				Seed: seedFor(seed, "serve-seed", k) % 1000}))
		}
	}
	pairs := [][2]string{{"firewall", "nat"}, {"lpm", "flowstats"}, {"example-firewall", "heavyhitter"}, {"loadbalancer", "ratelimiter"}}
	for _, p := range pairs {
		for k := 0; k < 2; k++ {
			add(kindColocate, syncReq("colocate", serve.Request{Target: "netronome", Workload: specs[k],
				Tenants: []serve.TenantSpec{{NF: p[0], Weight: float64(1 + k)}, {NF: p[1]}}}))
		}
	}
	for _, n := range []string{"firewall", "nat", "lpm", "flowstats"} {
		for k := 0; k < 3; k++ {
			add(kindPartial, syncReq("partial", serve.Request{NF: n, Target: "netronome", Workload: specs[k]}))
		}
	}
	// Jobs defer predict and advise requests of the same catalogue.
	for _, q := range append(append([]serveReq(nil), in.bodies[kindPredict]...), in.bodies[kindAdvise]...) {
		var req serve.Request
		if err := json.Unmarshal(q.body, &req); err != nil {
			return nil, err
		}
		req.Kind = strings.TrimPrefix(q.path, "/v1/")
		add(kindJob, serveReq{path: "/v1/jobs", body: mustJSON(req), check: q.check})
	}
	mix := []mixEntry{
		kindPredict:  {0.50, len(in.bodies[kindPredict])},
		kindAdvise:   {0.20, len(in.bodies[kindAdvise])},
		kindInline:   {0.04, 0},
		kindMeasure:  {0.06, len(in.bodies[kindMeasure])},
		kindColocate: {0.04, len(in.bodies[kindColocate])},
		kindPartial:  {0.04, len(in.bodies[kindPartial])},
		kindJob:      {0.12, len(in.bodies[kindJob])},
	}
	in.schedule = schedule(seedFor(seed, "serve-schedule", 0), rate, dur, mix, serveZipf)
	for _, a := range in.schedule {
		if a.Kind != kindInline {
			continue
		}
		ir := rand.New(rand.NewSource(seedFor(seed, "serve-inline", a.Key)))
		src := nfSource(ir, ir.Intn(len(families)), "i", a.Key).Source
		q := syncReq("predict", serve.Request{Source: src, Target: "netronome", Workload: specs[ir.Intn(len(specs))]})
		if a.Key%2 == 1 {
			q = syncReq("advise", serve.Request{Source: src, Workload: specs[ir.Intn(len(specs))]})
		}
		q.src = src
		in.inline = append(in.inline, q)
	}
	return in, nil
}

// servePredictable reports whether the NF maps onto the target at all; the
// pipeline ASIC cannot host NFs with payload loops, and a catalogue of
// predict requests must only hold answerable ones.
func servePredictable(src, target string) bool {
	n, err := clara.CompileNF(src)
	if err != nil {
		return false
	}
	t, err := clara.NewTarget(target)
	if err != nil {
		return false
	}
	wl, err := clara.ParseWorkload("")
	if err != nil {
		return false
	}
	_, err = n.Predict(t, wl, clara.Hints{})
	return err == nil
}

// serveSetup draws the catalogue and schedule, builds a fresh server with the
// library loaded, fits the netronome contention model, and makes one
// co-located prediction, which fills clara's per-target model memo the
// colocate endpoint reads (a long-running server pays that once). The fit
// is run on its own each time, so every set-up pays for it. It returns the
// time of each of those four pieces, in seconds.
func serveSetup(cfg runConfig) (*serve.Server, *serveInputs, []float64, error) {
	var pieces []float64
	t0 := time.Now()
	lap := func() {
		pieces = append(pieces, time.Since(t0).Seconds())
		t0 = time.Now()
	}
	in, err := serveCatalogue(cfg.seed, cfg.serveRate, cfg.dur)
	if err != nil {
		return nil, nil, nil, err
	}
	lap()
	srv, err := serve.New(serve.Config{})
	if err != nil {
		return nil, nil, nil, err
	}
	for name, src := range in.library {
		srv.AddNF(name, src)
	}
	lap()
	t, err := clara.NewTarget("netronome")
	if err != nil {
		return nil, nil, nil, err
	}
	if _, err := clara.FitContention(t); err != nil {
		return nil, nil, nil, err
	}
	lap()
	pair := make([]*clara.NF, 2)
	for i, n := range []string{"firewall", "nat"} {
		if pair[i], err = clara.CompileNF(in.library[n]); err != nil {
			return nil, nil, nil, err
		}
	}
	wl, err := clara.ParseWorkload("")
	if err != nil {
		return nil, nil, nil, err
	}
	if _, err := clara.PredictColocated(pair, []float64{1, 1}, t, []clara.Workload{wl, wl}); err != nil {
		return nil, nil, nil, err
	}
	lap()
	return srv, in, pieces, nil
}

// served is one finished arrival.
type served struct {
	kind      int
	fail      string  // why the request failed its check; empty when it passed
	latencyMs float64 // from due to the last response byte (or terminal poll)
	serviceMs float64 // from dispatch to the same point
	lateMs    float64 // dispatch minus due
	cache     string  // X-Clara-Cache of a sync response; "" for a job
	attempts  int     // job attempts
	jobMs     float64 // job created to finished, as the server recorded it
	key       string  // the request key answers are compared under
	body      []byte  // the answer: a sync response body or a job's result
}

// jobView is the part of a /v1/jobs response the benchmark reads.
type jobView struct {
	ID       string          `json:"id"`
	State    string          `json:"state"`
	Terminal bool            `json:"terminal"`
	Attempts int             `json:"attempts"`
	Created  time.Time       `json:"created"`
	Finished *time.Time      `json:"finished"`
	Result   json.RawMessage `json:"result"`
}

// servePass drives one server through the schedule. Every answer must be
// 2xx (or a job that ends done), and checkAnswers then compares the answers
// given under each request key.
func servePass(h http.Handler, in *serveInputs, tr *tracer) []served {
	out := make([]served, len(in.schedule))
	var wg sync.WaitGroup
	do := func(method, path string, body []byte) *httptest.ResponseRecorder {
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req := httptest.NewRequest(method, path, rd)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}
	start := time.Now()
	inline := 0
	for i, a := range in.schedule {
		q := serveReq{}
		if a.Kind == kindInline {
			q = in.inline[inline]
			inline++
		} else {
			q = in.bodies[a.Kind][a.Key]
		}
		if wait := a.Due - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		wg.Add(1)
		go func(i int, a arrival, q serveReq) {
			defer wg.Done()
			dispatched := time.Since(start)
			s := served{kind: a.Kind, lateMs: float64(dispatched-a.Due) / 1e6, key: q.check}
			root := tr.begin("serve."+kindNames[a.Kind], 0, i+1)
			if a.Kind == kindJob {
				s.fail = runJob(do, q, &s, tr, root, i+1)
			} else {
				rec := do(http.MethodPost, q.path, q.body)
				s.cache = rec.Header().Get("X-Clara-Cache")
				s.body = rec.Body.Bytes()
				if rec.Code/100 != 2 {
					s.fail = answerError(q.path, rec)
				}
			}
			tr.end(root)
			done := time.Since(start)
			s.latencyMs = float64(done-a.Due) / 1e6
			s.serviceMs = float64(done-dispatched) / 1e6
			out[i] = s
		}(i, a, q)
	}
	wg.Wait()
	return out
}

// answerError describes a refused or malformed answer.
func answerError(path string, rec *httptest.ResponseRecorder) string {
	body := rec.Body.String()
	if len(body) > 200 {
		body = body[:200]
	}
	return fmt.Sprintf("%s: status %d: %s", path, rec.Code, strings.TrimSpace(body))
}

// runJob submits a job and polls it until terminal. It returns why the job
// failed, or "" when it ended done.
func runJob(do func(string, string, []byte) *httptest.ResponseRecorder, q serveReq,
	s *served, tr *tracer, root, req int) string {
	id := tr.begin("jobs.submit", root, req)
	rec := do(http.MethodPost, q.path, q.body)
	tr.end(id)
	var v jobView
	if rec.Code != http.StatusAccepted || json.Unmarshal(rec.Body.Bytes(), &v) != nil {
		return answerError(q.path, rec)
	}
	id = tr.begin("jobs.poll", root, req)
	defer tr.end(id)
	for !v.Terminal {
		time.Sleep(pollEvery)
		rec = do(http.MethodGet, "/v1/jobs/"+v.ID, nil)
		if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &v) != nil {
			return answerError("/v1/jobs/"+v.ID, rec)
		}
	}
	s.attempts = v.Attempts
	if v.Finished != nil {
		s.jobMs = float64(v.Finished.Sub(v.Created)) / 1e6
	}
	s.body = v.Result
	if v.State != "done" {
		return fmt.Sprintf("/v1/jobs/%s: ended %s after %d attempts", v.ID, v.State, v.Attempts)
	}
	return ""
}

// answerTolerance is the relative difference two computed answers for one
// key may show in a number. The server computes some sums in an order that
// varies between computations, so a result recomputed after an eviction can
// differ from the first in its last bits.
const answerTolerance = 1e-9

// checkAnswers compares the answers under each request key and marks the
// requests that fail. Every answer the server computed (a miss, a shared
// flight or a job) must match the key's first computed answer up to
// answerTolerance in its numbers and exactly elsewhere. Every cache hit must
// be byte-identical to an answer the server computed for its key, because
// the server starts empty and caches only what it computed. It returns the
// number of keys whose computed answers were not all byte-identical.
func checkAnswers(res []served) (variants int) {
	computed := map[string][][]byte{}
	for _, s := range res {
		if s.fail == "" && s.cache != "hit" {
			computed[s.key] = append(computed[s.key], s.body)
		}
	}
	for _, bodies := range computed {
		for _, b := range bodies[1:] {
			if !bytes.Equal(b, bodies[0]) {
				variants++
				break
			}
		}
	}
	for i := range res {
		s := &res[i]
		if s.fail != "" {
			continue
		}
		bodies := computed[s.key]
		switch {
		case s.cache == "hit" && !containsBytes(bodies, s.body):
			s.fail = "cache hit matches no computed answer for its key"
		case s.cache != "hit" && !jsonClose(bodies[0], s.body, answerTolerance):
			s.fail = "computed answers for one key disagree: " + firstDifference(bodies[0], s.body)
		}
	}
	return variants
}

func containsBytes(set [][]byte, b []byte) bool {
	for _, x := range set {
		if bytes.Equal(x, b) {
			return true
		}
	}
	return false
}

// jsonClose reports whether two JSON documents are equal up to a relative
// difference of tol in each number.
func jsonClose(a, b []byte, tol float64) bool {
	var x, y any
	if json.Unmarshal(a, &x) != nil || json.Unmarshal(b, &y) != nil {
		return bytes.Equal(a, b)
	}
	return valuesClose(x, y, tol)
}

func valuesClose(x, y any, tol float64) bool {
	switch x := x.(type) {
	case float64:
		y, ok := y.(float64)
		return ok && math.Abs(x-y) <= tol*math.Max(math.Abs(x), math.Abs(y))
	case []any:
		y, ok := y.([]any)
		if !ok || len(x) != len(y) {
			return false
		}
		for i := range x {
			if !valuesClose(x[i], y[i], tol) {
				return false
			}
		}
		return true
	case map[string]any:
		y, ok := y.(map[string]any)
		if !ok || len(x) != len(y) {
			return false
		}
		for k, v := range x {
			w, ok := y[k]
			if !ok || !valuesClose(v, w, tol) {
				return false
			}
		}
		return true
	default:
		return x == y
	}
}

// firstDifference shows where two answers first differ, or is "" when they
// are equal.
func firstDifference(a, b []byte) string {
	if bytes.Equal(a, b) {
		return ""
	}
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	lo := max(i-40, 0)
	return fmt.Sprintf("at byte %d, %q vs %q", i, a[lo:min(i+40, len(a))], b[lo:min(i+40, len(b))])
}

// reportFailures writes the first few failed requests to standard error.
func reportFailures(res []served) {
	n := 0
	for _, s := range res {
		if s.fail != "" && n < 5 {
			fmt.Fprintln(os.Stderr, "perfbench: failed:", s.fail)
			n++
		}
	}
}

func runServe(cfg runConfig) (*outcome, error) {
	type setup struct {
		srv *serve.Server
		in  *serveInputs
	}
	st, reps, since, err := timedSetups(func() (setup, []float64, error) {
		srv, in, pieces, err := serveSetup(cfg)
		return setup{srv, in}, pieces, err
	}, func(s setup) { s.srv.Shutdown(context.Background()) })
	if err != nil {
		return nil, err
	}
	cpu0 := cpuSeconds()
	res := servePass(st.srv.Handler(), st.in, nil)
	cpu := cpuSeconds() - cpu0
	variants := checkAnswers(res)
	reportFailures(res)
	metrics := scrape(st.srv.Handler())
	if err := st.srv.Shutdown(context.Background()); err != nil {
		return nil, err
	}
	out := newOutcome()
	out.attempted = len(res)
	var sync, jobs, late latency
	busy := 0.0
	for _, s := range res {
		late.add(s.lateMs)
		busy += s.latencyMs
		if s.fail != "" {
			out.failed++
			continue
		}
		if s.kind == kindJob {
			jobs.add(s.latencyMs)
		} else {
			sync.add(s.latencyMs)
		}
	}
	if cfg.traced {
		return out, traceServe(cfg, res, busy, out)
	}
	setSetup(out, reps, []float64{since})
	// The tails are the geometric mean of the costliest quarter of the
	// request classes' medians: sync kinds for tail_ms, jobs by the endpoint
	// they defer for alt_tail_ms.
	kinds, syncClasses, jobClasses := kindRound(res)
	_, syncTail, _ := classSummary([]round{kinds}, syncClasses, 50)
	_, jobTail, _ := classSummary([]round{kinds}, jobClasses, 50)
	out.set("typical_ms", sync.p50(), "ms", len(sync.ms))
	out.set("tail_ms", syncTail, "ms", len(sync.ms))
	out.set("alt_typical_ms", jobs.p50(), "ms", len(jobs.ms))
	out.set("alt_tail_ms", jobTail, "ms", len(jobs.ms))
	// The offered rate is fixed, so the work done per second is measured
	// against CPU time: answered requests per CPU-second of the process.
	out.set("rate_per_s", float64(len(res)-out.failed)/cpu, "1/s", len(res))
	out.set("serve_p50_ms", sync.p50(), "ms", len(sync.ms))
	out.set("serve_p95_ms", sync.tailAt(serveSyncP), "ms", len(sync.ms))
	out.set("serve_p99_ms", sync.tailAt(99), "ms", len(sync.ms))
	out.set("job_p50_ms", jobs.p50(), "ms", len(jobs.ms))
	out.set("job_p90_ms", jobs.tailAt(serveJobP), "ms", len(jobs.ms))
	out.set("driver.late_p50_ms", late.p50(), "ms", len(late.ms))
	out.set("driver.late_p99_ms", late.tailAt(99), "ms", len(late.ms))
	out.set("serve.answer_variants", float64(variants), "count", len(res))
	out.set("serve.result_hit_ratio", ratio(metrics, "clara_serve_cache_hits_total", "clara_serve_cache_misses_total"), "ratio", len(res))
	return out, nil
}

// kindRound puts the latencies of the passing requests into one round by
// class, and lists the classes: a sync request's class is its kind, a job's
// is the endpoint it defers.
func kindRound(res []served) (r round, syncClasses, jobClasses []string) {
	r = round{Ms: map[string][]float64{}}
	for _, s := range res {
		if s.fail != "" {
			continue
		}
		class := kindNames[s.kind]
		if s.kind == kindJob {
			endpoint, _, _ := strings.Cut(s.key, "\x00")
			class = "job/" + endpoint
		}
		if r.Ms[class] == nil {
			if s.kind == kindJob {
				jobClasses = append(jobClasses, class)
			} else {
				syncClasses = append(syncClasses, class)
			}
		}
		r.add(class, s.latencyMs)
	}
	sort.Strings(syncClasses)
	sort.Strings(jobClasses)
	return r, syncClasses, jobClasses
}

// traceServe runs the schedule again on a fresh server with a span around
// every request, reads the server's own counters and stage timers, and
// replays the pass's inline sources and measure traces through nfc and
// workload under spans.
func traceServe(cfg runConfig, untraced []served, untracedBusy float64, out *outcome) error {
	srv, in, _, err := serveSetup(cfg)
	if err != nil {
		return err
	}
	tr := newTracer()
	var res []served
	loop, err := profiled(func() error {
		res = servePass(srv.Handler(), in, tr)
		return nil
	})
	if err != nil {
		return err
	}
	variants := checkAnswers(res)
	reportFailures(res)
	m := scrape(srv.Handler())
	if err := srv.Shutdown(context.Background()); err != nil {
		return err
	}
	var hit, miss, late, jobMs latency
	var attempts []float64
	busy, service := 0.0, 0.0
	for _, s := range res {
		busy += s.latencyMs
		if s.fail != "" {
			out.failed++
			continue
		}
		switch {
		case s.kind == kindJob:
			jobMs.add(s.jobMs)
			attempts = append(attempts, float64(s.attempts))
		case s.cache == "hit":
			hit.add(s.serviceMs)
		case s.cache == "miss":
			miss.add(s.serviceMs)
		}
		if s.kind != kindJob {
			service += s.serviceMs
		}
	}
	for _, s := range untraced {
		late.add(s.lateMs)
	}
	out.set("serve.hit_p50_us", hit.p50()*1e3, "us", len(hit.ms))
	out.set("serve.miss_p50_ms", miss.p50(), "ms", len(miss.ms))
	out.set("serve.result_hit_ratio", ratio(m, "clara_serve_cache_hits_total", "clara_serve_cache_misses_total"), "ratio", len(res))
	out.set("serve.nf_hit_ratio", ratio(m, "clara_serve_nf_cache_hits_total", "clara_serve_nf_cache_misses_total"), "ratio", len(res))
	out.set("serve.computations", m.sum("clara_serve_computations_total", ""), "count", len(res))
	out.set("serve.shared", m.sum("clara_serve_singleflight_shared_total", ""), "count", len(res))
	out.set("serve.answer_variants", float64(variants), "count", len(res))
	out.set("serve.evictions", m.sum("clara_serve_result_cache_evictions_total", ""), "count", len(res))
	out.set("jobs.complete_p50_ms", jobMs.p50(), "ms", len(jobMs.ms))
	out.set("jobs.attempts_per_job", mean(attempts), "count", len(attempts))
	out.set("driver.late_p99_ms", late.tailAt(99), "ms", len(late.ms))
	out.set("trace.overhead_pct", 100*(busy-untracedBusy)/untracedBusy, "%", len(res))
	// The server times its own pipeline stages; they stand in for spans
	// inside it.
	stageNs := 0.0
	for _, st := range []struct {
		stage, metric, unit string
		scale               float64
	}{
		{"enumerate", "symexec.enum_ms", "ms", 1e6}, {"annotate", "symexec.annotate_us", "us", 1e3},
		{"map", "mapper.map_us", "us", 1e3}, {"predict", "predict.us", "us", 1e3},
		{"colocate", "predict.colocated_us", "us", 1e3},
	} {
		sum := m.sum("clara_stage_nanos_sum", `stage="`+st.stage+`"`)
		n := m.sum("clara_stage_nanos_count", `stage="`+st.stage+`"`)
		stageNs += sum
		if n > 0 {
			out.set(st.metric, sum/n/st.scale, st.unit, int(n))
		}
	}
	simNs := m.sum("clara_stage_nanos_sum", `stage="simulate"`)
	if ev := m.sum("clara_budget_sim_events", ""); ev > 0 {
		out.set("nicsim.run_ns_per_pkt", simNs/ev, "ns", int(ev))
	}
	stageNs += simNs + m.sum("clara_stage_nanos_sum", `stage="partial"`)
	out.set("trace.accounted_pct", 100*stageNs/1e6/service, "%", len(res))
	for k, v := range loop {
		out.set(k, v, "%", 1)
	}
	if err := replayServeLayers(in, tr, out); err != nil {
		return err
	}
	out.spans, out.loop = tr.snapshot(), loop
	return nil
}

// replayServeLayers feeds the pass's never-seen sources through nfc, cir and
// symexec, and its measure workloads through trace generation and decode,
// under spans.
func replayServeLayers(in *serveInputs, tr *tracer, out *outcome) error {
	usage := &budget.Usage{}
	ctx := budget.WithUsage(context.Background(), usage)
	var counts adviseCounts
	base := len(in.schedule)
	for i, q := range in.inline {
		root := tr.begin("replay.compile", 0, base+i+1)
		_, err := traceCompile(ctx, tr, root, base+i+1, q.src, usage, &counts)
		tr.end(root)
		if err != nil {
			return err
		}
	}
	pkts := 0
	for _, q := range in.bodies[kindMeasure] {
		var req serve.Request
		if err := json.Unmarshal(q.body, &req); err != nil {
			return err
		}
		prof, err := clara.ParseTrafficProfile(req.Workload)
		if err != nil {
			return err
		}
		trace, _, err := genTrace(ctx, tr, req.Workload, prof.Seed)
		if err != nil {
			return err
		}
		pkts += len(trace.Packets)
	}
	st := statsByName(tr.snapshot())
	out.set("nfc.compile_us", st["nfc.compile"].meanSelfUs(), "us", spanN(st, "nfc.compile"))
	out.set("nfc.allocs", mean(counts.allocs), "count", len(counts.allocs))
	out.set("cir.instrs", mean(counts.instrs), "count", len(counts.instrs))
	out.set("cir.graph_us", st["cir.graph"].meanSelfUs(), "us", spanN(st, "cir.graph"))
	out.set("symexec.steps", mean(counts.steps), "count", len(counts.steps))
	out.set("symexec.paths", mean(counts.paths), "count", len(counts.paths))
	if pkts > 0 {
		for _, n := range []string{"generate", "decode"} {
			if s := st["workload."+n]; s != nil {
				name := map[string]string{"generate": "workload.gen_us_per_kpkt", "decode": "workload.decode_us_per_kpkt"}[n]
				out.set(name, float64(s.self)/1e3/(float64(pkts)/1e3), "us", s.n)
			}
		}
	}
	return nil
}

// promMetrics holds a Prometheus text exposition: series → value.
type promMetrics map[string]float64

// scrape reads GET /metrics.
func scrape(h http.Handler) promMetrics {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	m := promMetrics{}
	sc := bufio.NewScanner(rec.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			m[line[:i]] = v
		}
	}
	return m
}

// sum adds every series of family whose labels contain label ("" for all).
func (m promMetrics) sum(family, label string) float64 {
	total := 0.0
	for series, v := range m {
		name, labels, _ := strings.Cut(series, "{")
		if name == family && strings.Contains(labels, label) {
			total += v
		}
	}
	return total
}

func ratio(m promMetrics, hits, misses string) float64 {
	h, ms := m.sum(hits, ""), m.sum(misses, "")
	if h+ms == 0 {
		return 0
	}
	return h / (h + ms)
}

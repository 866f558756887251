package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"clara"
	"clara/internal/budget"
	"clara/internal/nicsim"
)

const firewallSrc = `nf firewall {
	state conns : map<13, 8>[65536];

	handler(pkt) {
		if (!parse(ipv4)) { return pass; }
		var k = flow_key();
		if (map_lookup(conns, k)) {
			emit(0);
			return pass;
		}
		if (parse(tcp) && (field(tcp, flags) & 0x02)) {
			map_put(conns, k, 1, 0);
			emit(0);
			return pass;
		}
		return drop;
	}
}`

const testWorkload = "flows=1000,rate=60000,size=300"

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.AddNF("firewall", firewallSrc)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func post(t *testing.T, url string, req Request) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// postFromGoroutine is post for a goroutine other than the test's: a
// transport error is reported with t.Error and answers status 0.
func postFromGoroutine(t *testing.T, url string, req Request) (int, []byte) {
	body, err := json.Marshal(req)
	if err != nil {
		t.Error(err)
		return 0, nil
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Error(err)
		return 0, nil
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Error(err)
	}
	return resp.StatusCode, out
}

// TestAdviseCacheHitIsByteIdenticalAndFree is the acceptance criterion: the
// second identical request is served from the result cache — zero
// additional computations (the counter-based stand-in for the ≥10x wall
// clock claim: a map lookup versus a full enumerate+map+predict sweep) —
// and its body is byte-identical to the cold response.
func TestAdviseCacheHitIsByteIdenticalAndFree(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	req := Request{NF: "firewall", Workload: testWorkload}

	resp1, body1 := post(t, ts.URL+"/v1/advise", req)
	if resp1.StatusCode != 200 {
		t.Fatalf("cold advise: %d %s", resp1.StatusCode, body1)
	}
	if got := resp1.Header.Get("X-Clara-Cache"); got != "miss" {
		t.Errorf("cold response X-Clara-Cache = %q, want miss", got)
	}
	resp2, body2 := post(t, ts.URL+"/v1/advise", req)
	if resp2.StatusCode != 200 {
		t.Fatalf("warm advise: %d %s", resp2.StatusCode, body2)
	}
	if got := resp2.Header.Get("X-Clara-Cache"); got != "hit" {
		t.Errorf("warm response X-Clara-Cache = %q, want hit", got)
	}
	if !bytes.Equal(body1, body2) {
		t.Errorf("cache hit body differs from cold body:\n%s\nvs\n%s", body1, body2)
	}
	if n := s.metrics.Counter("clara_serve_computations_total", "endpoint", "advise").Value(); n != 1 {
		t.Errorf("computations after 2 identical requests = %d, want 1", n)
	}
	if n := s.metrics.Counter("clara_serve_cache_hits_total", "endpoint", "advise").Value(); n != 1 {
		t.Errorf("cache hits = %d, want 1", n)
	}
	if n := s.metrics.Counter("clara_serve_cache_misses_total", "endpoint", "advise").Value(); n != 1 {
		t.Errorf("cache misses = %d, want 1", n)
	}

	var parsed adviseResponse
	if err := json.Unmarshal(body1, &parsed); err != nil {
		t.Fatalf("advise body not JSON: %v", err)
	}
	if parsed.NF != "firewall" || len(parsed.Advice) == 0 {
		t.Errorf("advise response: %+v", parsed)
	}
}

// TestSingleflightCollapsesConcurrentRequests holds the one real
// computation at a barrier while N identical requests pile up, then
// releases it: every response must come from that single computation.
func TestSingleflightCollapsesConcurrentRequests(t *testing.T) {
	gate := make(chan struct{})
	s, ts := newTestServer(t, Config{})
	s.testComputeGate = func(context.Context) { <-gate }

	const n = 6
	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		bodies [][]byte
		codes  []int
	)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, body := post(t, ts.URL+"/v1/advise", Request{NF: "firewall", Workload: testWorkload})
			mu.Lock()
			bodies = append(bodies, body)
			codes = append(codes, resp.StatusCode)
			mu.Unlock()
		}()
	}
	// Release the barrier only once every request has joined the flight
	// (leader + n-1 duplicates); polling admission alone would race a slow
	// joiner against the leader finishing and removing the flight entry.
	deadline := time.Now().Add(10 * time.Second)
	for s.flight.waiters() < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d requests joined the flight", s.flight.waiters(), n)
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()

	for i, c := range codes {
		if c != 200 {
			t.Fatalf("request %d: status %d (%s)", i, c, bodies[i])
		}
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Errorf("request %d body differs under singleflight", i)
		}
	}
	if got := s.metrics.Counter("clara_serve_computations_total", "endpoint", "advise").Value(); got != 1 {
		t.Errorf("computations for %d concurrent identical requests = %d, want 1", n, got)
	}
}

// TestTimeoutScopesFlightSharing: concurrent requests that differ only in
// their timeout spec must NOT share a flight — a flight runs under its
// leader's clamped deadline, so a joiner with another timeout would get the
// leader's answer instead of its own. Here a generous request leads a
// pinned computation; an identical request with a 1ns timeout must lead
// its own flight, whose deadline ends before it can run (504), instead of
// joining the pinned one and answering 200 once it is released.
func TestTimeoutScopesFlightSharing(t *testing.T) {
	var entered atomic.Int32
	gate := make(chan struct{})
	var release sync.Once
	open := func() { release.Do(func() { close(gate) }) }
	s, ts := newTestServer(t, Config{})
	t.Cleanup(open)
	s.testComputeGate = func(context.Context) { entered.Add(1); <-gate }

	loose := make(chan int, 1)
	go func() {
		code, _ := postFromGoroutine(t, ts.URL+"/v1/advise", Request{NF: "firewall", Workload: testWorkload})
		loose <- code
	}()
	waitFor(t, s, "the generous request never started computing", func() bool { return entered.Load() == 1 })
	// A tight request that joined the pinned flight would wait for the
	// gate; the watchdog releases it so the test fails instead of hanging.
	watchdog := time.AfterFunc(10*time.Second, open)
	defer watchdog.Stop()
	resp, body := post(t, ts.URL+"/v1/advise",
		Request{NF: "firewall", Workload: testWorkload, Timeout: "1ns"})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Errorf("1ns-timeout request got %d (%s), want 504 (must not join the generous flight)", resp.StatusCode, body)
	}
	open()
	if code := <-loose; code != http.StatusOK {
		t.Errorf("generous request got %d, want 200", code)
	}
	if n := s.metrics.Counter("clara_serve_computations_total", "endpoint", "advise").Value(); n != 1 || entered.Load() != 1 {
		t.Errorf("computations = %d (entered %d), want 1: the 1ns request's deadline ended before it ran", n, entered.Load())
	}
}

// TestPanicReleasesActiveCount: a handler panic (recovered per-connection
// by net/http) must still decrement the active counter and clean up its
// flight entry, or Shutdown's drain would block forever and any later
// identical request would join a dead flight.
func TestPanicReleasesActiveCount(t *testing.T) {
	var fired atomic.Bool
	s, ts := newTestServer(t, Config{})
	s.testComputeGate = func(context.Context) {
		if fired.CompareAndSwap(false, true) {
			panic("boom")
		}
	}

	// The panicking request is answered 500 by the job engine's panic guard;
	// an aborted connection would be tolerated here too.
	body, err := json.Marshal(Request{NF: "firewall", Workload: testWorkload})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/advise", "application/json", bytes.NewReader(body))
	if err == nil {
		resp.Body.Close()
	}

	// The flight entry was removed despite the panic: an identical request
	// computes fresh instead of joining a dead flight.
	resp2, body2 := post(t, ts.URL+"/v1/advise", Request{NF: "firewall", Workload: testWorkload})
	if resp2.StatusCode != http.StatusOK {
		t.Errorf("request after panic got %d (%s), want 200", resp2.StatusCode, body2)
	}

	// The active count was released despite the panic: Shutdown drains
	// promptly instead of waiting on a request that will never leave.
	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		done <- s.Shutdown(ctx)
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("Shutdown = %v, want nil (clean drain)", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Shutdown deadlocked: panicked handler leaked the active count")
	}
}

// TestShutdownDrains checks the shutdown contract: draining refuses new
// work with 503, in-flight work completes with 200, and Shutdown returns
// only after it has.
func TestShutdownDrains(t *testing.T) {
	gate := make(chan struct{})
	s, ts := newTestServer(t, Config{})
	s.testComputeGate = func(context.Context) { <-gate }

	inflightDone := make(chan int, 1)
	go func() {
		resp, _ := post(t, ts.URL+"/v1/advise", Request{NF: "firewall", Workload: testWorkload})
		inflightDone <- resp.StatusCode
	}()
	// Wait for the request to be admitted.
	deadline := time.Now().Add(10 * time.Second)
	for {
		s.mu.Lock()
		active := s.active
		s.mu.Unlock()
		if active > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("in-flight request never admitted")
		}
		time.Sleep(time.Millisecond)
	}

	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- s.Shutdown(context.Background()) }()

	// New work is refused while draining.
	refusedDeadline := time.Now().Add(10 * time.Second)
	for {
		resp, _ := post(t, ts.URL+"/v1/nfs", Request{})
		if resp.StatusCode == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(refusedDeadline) {
			t.Fatal("draining server still admits new requests")
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case err := <-shutdownDone:
		t.Fatalf("Shutdown returned %v while a request was still in flight", err)
	default:
	}

	close(gate)
	if code := <-inflightDone; code != 200 {
		t.Errorf("in-flight request during drain got %d, want 200", code)
	}
	if err := <-shutdownDone; err != nil {
		t.Errorf("Shutdown = %v, want nil (clean drain)", err)
	}
}

// TestShutdownAbortsPastDeadline: when the drain context expires, in-flight
// analyses are cancelled through the budget plumbing and their requesters
// get an error status, but Shutdown still returns. The gate blocks the
// computation on its own attempt context, so it can only proceed once the
// hard abort has reached it — the drain deadline is guaranteed to trip, and
// the computation then runs canceled.
func TestShutdownAbortsPastDeadline(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	s.testComputeGate = func(ctx context.Context) { <-ctx.Done() }

	inflightDone := make(chan int, 1)
	go func() {
		resp, _ := post(t, ts.URL+"/v1/advise", Request{NF: "firewall", Workload: testWorkload})
		inflightDone <- resp.StatusCode
	}()
	// Wait for the computation itself to run: a request counted active can
	// still be short of the job engine, and a drain would refuse it there.
	deadline := time.Now().Add(10 * time.Second)
	for s.engine.Running() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("computation never started")
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("Shutdown = %v, want context.DeadlineExceeded (drain deadline forced the abort)", err)
	}
	if code := <-inflightDone; code != http.StatusServiceUnavailable {
		t.Errorf("aborted in-flight request got %d, want 503", code)
	}
}

// TestPredictAndPartialEndpoints smoke-tests the other two analysis
// endpoints, target validation included.
func TestPredictAndPartialEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	resp, body := post(t, ts.URL+"/v1/predict",
		Request{NF: "firewall", Target: "netronome", Workload: testWorkload})
	if resp.StatusCode != 200 {
		t.Fatalf("predict: %d %s", resp.StatusCode, body)
	}
	var pr predictResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Prediction == nil || pr.Prediction.MeanNanos <= 0 {
		t.Errorf("implausible prediction: %+v", pr.Prediction)
	}

	resp, body = post(t, ts.URL+"/v1/partial",
		Request{NF: "firewall", Target: "netronome", Workload: testWorkload})
	if resp.StatusCode != 200 {
		t.Fatalf("partial: %d %s", resp.StatusCode, body)
	}
	var par partialResponse
	if err := json.Unmarshal(body, &par); err != nil {
		t.Fatal(err)
	}
	if par.Analysis == nil || len(par.Analysis.Cuts) == 0 {
		t.Errorf("empty partial analysis: %s", body)
	}

	// Unknown target is a 400, not a cache entry.
	resp, _ = post(t, ts.URL+"/v1/predict",
		Request{NF: "firewall", Target: "no-such-nic", Workload: testWorkload})
	if resp.StatusCode != 400 {
		t.Errorf("unknown target: %d, want 400", resp.StatusCode)
	}
}

// TestRequestValidation covers the 4xx paths.
func TestRequestValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name string
		req  Request
		want int
	}{
		{"no nf or source", Request{Workload: testWorkload}, 400},
		{"both nf and source", Request{NF: "firewall", Source: firewallSrc}, 400},
		{"unknown library nf", Request{NF: "nope", Workload: testWorkload}, 400},
		{"bad source", Request{Source: "nf broken {", Workload: testWorkload}, 400},
		{"bad workload", Request{NF: "firewall", Workload: "size=-3"}, 400},
		{"bad budget spec", Request{NF: "firewall", Workload: testWorkload, Budget: "nope=1"}, 400},
		{"bad timeout spec", Request{NF: "firewall", Workload: testWorkload, Timeout: "later"}, 400},
	}
	for _, c := range cases {
		resp, body := post(t, ts.URL+"/v1/advise", c.req)
		if resp.StatusCode != c.want {
			t.Errorf("%s: status %d, want %d (%s)", c.name, resp.StatusCode, c.want, body)
		}
		var eb errorBody
		if err := json.Unmarshal(body, &eb); err != nil || eb.Error == "" {
			t.Errorf("%s: error body %q not a JSON error envelope", c.name, body)
		}
	}
	// GET on a POST endpoint.
	resp, err := http.Get(ts.URL + "/v1/advise")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Errorf("GET /v1/advise: %d, want 400", resp.StatusCode)
	}
}

// TestBudgetCeilingClamp: a request asking for a looser budget than the
// server ceiling still trips at the ceiling (422).
func TestBudgetCeilingClamp(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBudget: budget.Limits{SymExecSteps: 1}})
	resp, body := post(t, ts.URL+"/v1/advise",
		Request{NF: "firewall", Workload: testWorkload, Budget: "symsteps=1000000000"})
	if resp.StatusCode != 422 {
		t.Fatalf("over-ceiling request: %d %s, want 422", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "budget") {
		t.Errorf("422 body should name the tripped budget: %s", body)
	}
}

// TestNFsEndpointAndMetrics: the library listing and the Prometheus
// exposition carry the advertised series.
func TestNFsEndpointAndMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	resp, err := http.Get(ts.URL + "/v1/nfs")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/v1/nfs: %d", resp.StatusCode)
	}
	var nl nfsResponse
	if err := json.Unmarshal(body, &nl); err != nil {
		t.Fatal(err)
	}
	if len(nl.NFs) != 1 || nl.NFs[0].Name != "firewall" || nl.NFs[0].Hash == "" {
		t.Errorf("library listing: %s", body)
	}
	if len(nl.Targets) == 0 {
		t.Errorf("no targets listed: %s", body)
	}

	// Generate one request so endpoint metrics exist, then scrape.
	post(t, ts.URL+"/v1/advise", Request{NF: "firewall", Workload: testWorkload})
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		`clara_http_request_nanos_bucket{endpoint="advise"`,
		`clara_http_requests_total{`,
		`clara_serve_cache_misses_total{endpoint="advise"} 1`,
		`clara_serve_computations_total{endpoint="advise"} 1`,
		"clara_serve_nf_cache_entries",
		"clara_serve_result_cache_entries",
		"clara_stage_nanos",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestMetricsCountPhase1Reuse advises one library NF under three workloads
// that differ only in their TCP share, which prices the mapping ILP's
// objective but leaves its rows alone: the first advise admits each target,
// the second records its phase 1, and the third reuses it, which /metrics
// must show.
func TestMetricsCountPhase1Reuse(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, tcp := range []string{"0.2", "0.5", "0.8"} {
		resp, body := post(t, ts.URL+"/v1/advise", Request{NF: "firewall", Workload: testWorkload + ",tcp=" + tcp})
		if resp.StatusCode != 200 {
			t.Fatalf("advise tcp=%s: %d %s", tcp, resp.StatusCode, body)
		}
	}
	if hits := metricValue(t, ts.URL, "clara_map_phase1_hits_total"); hits < 1 {
		t.Errorf("clara_map_phase1_hits_total = %d, want at least 1", hits)
	}
}

// metricValue reads the unlabelled metric name from the server's /metrics.
func metricValue(t *testing.T, url, name string) int {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var v int
	for _, line := range strings.Split(string(body), "\n") {
		if s, ok := strings.CutPrefix(line, name+" "); ok {
			fmt.Sscan(s, &v)
		}
	}
	return v
}

// TestMetricsCountPhase1Replay advises one library NF under three
// workloads that differ only in their flow count, which prices the
// mapping ILP's flow-cache row, a passenger of its phase 1 (the library
// firewall has no accelerator node, so its ILP has no rate-priced Θ row):
// the first advise admits each target, the second records its phase 1, and
// the third starts from it by replaying its pivot log on the changed row,
// which /metrics must show.
func TestMetricsCountPhase1Replay(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, flows := range []string{"1000", "2000", "4000"} {
		resp, body := post(t, ts.URL+"/v1/advise", Request{NF: "firewall", Workload: "flows=" + flows + ",rate=60000,size=300"})
		if resp.StatusCode != 200 {
			t.Fatalf("advise flows=%s: %d %s", flows, resp.StatusCode, body)
		}
	}
	if replays := metricValue(t, ts.URL, "clara_map_phase1_replays_total"); replays < 1 {
		t.Errorf("clara_map_phase1_replays_total = %d, want at least 1", replays)
	}
}

// TestResultCacheEviction: a result cache of size 1 evicts and recomputes.
func TestResultCacheEviction(t *testing.T) {
	s, ts := newTestServer(t, Config{ResultCacheSize: 1})
	wl2 := "flows=2000,rate=60000,size=300"

	post(t, ts.URL+"/v1/advise", Request{NF: "firewall", Workload: testWorkload})
	post(t, ts.URL+"/v1/advise", Request{NF: "firewall", Workload: wl2}) // evicts the first
	post(t, ts.URL+"/v1/advise", Request{NF: "firewall", Workload: testWorkload})

	if n := s.metrics.Counter("clara_serve_result_cache_evictions_total").Value(); n < 1 {
		t.Errorf("evictions = %d, want ≥ 1", n)
	}
	if n := s.metrics.Counter("clara_serve_computations_total", "endpoint", "advise").Value(); n != 3 {
		t.Errorf("computations = %d, want 3 (every request missed a size-1 cache)", n)
	}
	// The compiled NF survived the result-cache churn: one compile only.
	if n := s.metrics.Counter("clara_serve_nf_cache_misses_total").Value(); n != 1 {
		t.Errorf("NF compiles = %d, want 1 (NF cache is independent of result cache)", n)
	}
}

// TestInlineSourceRequests: source-carrying requests work and share the
// compiled-NF cache with identical sources.
func TestInlineSourceRequests(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	req := Request{Source: firewallSrc, Workload: testWorkload}
	resp, body := post(t, ts.URL+"/v1/advise", req)
	if resp.StatusCode != 200 {
		t.Fatalf("inline source advise: %d %s", resp.StatusCode, body)
	}
	// The same source via the library name is the same NF hash — the
	// compiled-NF cache must hit even though the result key differs only in
	// endpoint inputs.
	resp, body = post(t, ts.URL+"/v1/predict",
		Request{NF: "firewall", Target: "netronome", Workload: testWorkload})
	if resp.StatusCode != 200 {
		t.Fatalf("predict after inline advise: %d %s", resp.StatusCode, body)
	}
	if n := s.metrics.Counter("clara_serve_nf_cache_hits_total").Value(); n != 1 {
		t.Errorf("NF cache hits = %d, want 1 (same source hash across endpoints)", n)
	}
}

func ExampleServer() {
	s, err := New(Config{})
	if err != nil {
		panic(err)
	}
	s.AddNF("firewall", firewallSrc)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		panic(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	fmt.Print(string(b))
	// Output: ok
}

// TestColocateEndpoint exercises POST /v1/colocate: two co-located tenants
// predicted with contention, result caching keyed on the NF set and weights
// (a reweighted request recomputes; a repeated one is a byte-identical hit),
// and a null prediction slot for a deactivated tenant.
func TestColocateEndpoint(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	req := Request{Target: "netronome", Workload: testWorkload,
		Tenants: []TenantSpec{{NF: "firewall"}, {NF: "firewall", Weight: 2}}}

	resp1, body1 := post(t, ts.URL+"/v1/colocate", req)
	if resp1.StatusCode != 200 {
		t.Fatalf("cold colocate: %d %s", resp1.StatusCode, body1)
	}
	var parsed colocateResponse
	if err := json.Unmarshal(body1, &parsed); err != nil {
		t.Fatalf("colocate body not JSON: %v\n%s", err, body1)
	}
	if len(parsed.Tenants) != 2 {
		t.Fatalf("tenants = %d, want 2", len(parsed.Tenants))
	}
	for i, ten := range parsed.Tenants {
		if ten.Prediction == nil || ten.Prediction.MeanCycles <= 0 {
			t.Errorf("tenant %d: missing or empty prediction: %+v", i, ten)
		}
	}

	// A repeated scenario is a cache hit, byte for byte.
	resp2, body2 := post(t, ts.URL+"/v1/colocate", req)
	if got := resp2.Header.Get("X-Clara-Cache"); got != "hit" {
		t.Errorf("repeat colocate X-Clara-Cache = %q, want hit", got)
	}
	if !bytes.Equal(body1, body2) {
		t.Errorf("cache hit body differs from cold body")
	}
	if n := s.metrics.Counter("clara_serve_computations_total", "endpoint", "colocate").Value(); n != 1 {
		t.Errorf("computations after 2 identical requests = %d, want 1", n)
	}

	// Reweighting a tenant changes the result identity.
	req.Tenants[1].Weight = 3
	resp3, _ := post(t, ts.URL+"/v1/colocate", req)
	if got := resp3.Header.Get("X-Clara-Cache"); got != "miss" {
		t.Errorf("reweighted colocate X-Clara-Cache = %q, want miss", got)
	}

	// A deactivated tenant (negative weight) comes back null; the solo
	// neighbour still predicts.
	req.Tenants[1].Weight = -1
	resp4, body4 := post(t, ts.URL+"/v1/colocate", req)
	if resp4.StatusCode != 200 {
		t.Fatalf("deactivated colocate: %d %s", resp4.StatusCode, body4)
	}
	var deact colocateResponse
	if err := json.Unmarshal(body4, &deact); err != nil {
		t.Fatal(err)
	}
	if deact.Tenants[0].Prediction == nil || deact.Tenants[1].Prediction != nil {
		t.Errorf("deactivation: want active[0] + null[1], got %+v", deact.Tenants)
	}

	// No tenants is a 400.
	resp5, _ := post(t, ts.URL+"/v1/colocate", Request{Target: "netronome", Workload: testWorkload})
	if resp5.StatusCode != http.StatusBadRequest {
		t.Errorf("tenantless colocate: %d, want 400", resp5.StatusCode)
	}
}

// TestColocateCountsAgainstMaxInflight holds a /v1/colocate computation at
// the compute gate under MaxInflight 1: it must occupy the only admission
// slot, so a concurrent advise queues behind it instead of computing.
func TestColocateCountsAgainstMaxInflight(t *testing.T) {
	var entered atomic.Int32
	gate := make(chan struct{})
	var release sync.Once
	open := func() { release.Do(func() { close(gate) }) }
	s, ts := newTestServer(t, Config{MaxInflight: 1})
	t.Cleanup(open) // runs before the server closes, so a failed check cannot hang it
	s.testComputeGate = func(context.Context) { entered.Add(1); <-gate }

	codes := make(chan int, 2)
	go func() {
		resp, _ := post(t, ts.URL+"/v1/colocate", Request{Target: "netronome", Workload: testWorkload,
			Tenants: []TenantSpec{{NF: "firewall"}, {NF: "firewall"}}})
		codes <- resp.StatusCode
	}()
	deadline := time.Now().Add(10 * time.Second)
	for entered.Load() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("colocate computation never reached the gate")
		}
		time.Sleep(time.Millisecond)
	}
	if n := s.engine.Running(); n != 1 {
		t.Fatalf("admission slots taken by the gated colocate = %d, want 1", n)
	}

	go func() {
		resp, _ := post(t, ts.URL+"/v1/advise", Request{NF: "firewall", Workload: testWorkload})
		codes <- resp.StatusCode
	}()
	for s.flight.waiters() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("advise request never joined a flight")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // give a wrongly admitted advise time to reach the gate
	if n := entered.Load(); n != 1 {
		t.Fatalf("%d computations passed admission with MaxInflight 1", n)
	}

	open()
	for i := 0; i < 2; i++ {
		if code := <-codes; code != http.StatusOK {
			t.Errorf("request got %d, want 200", code)
		}
	}
	if n := entered.Load(); n != 2 {
		t.Errorf("computations = %d, want 2", n)
	}
}

// TestMeasureEndpoint exercises POST /v1/measure: a simulator run with an
// explicit seed, its repeat answered from the cache, and a different seed
// forcing a fresh computation.
func TestMeasureEndpoint(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	req := Request{NF: "firewall", Target: "netronome",
		Workload: "packets=256,flows=64,rate=60000,size=300", Seed: 7}

	resp1, body1 := post(t, ts.URL+"/v1/measure", req)
	if resp1.StatusCode != 200 {
		t.Fatalf("cold measure: %d %s", resp1.StatusCode, body1)
	}
	var parsed measureResponse
	if err := json.Unmarshal(body1, &parsed); err != nil {
		t.Fatalf("measure body not JSON: %v\n%s", err, body1)
	}
	if parsed.NF != "firewall" || parsed.Packets == 0 || parsed.MeanCycles <= 0 {
		t.Errorf("measure response: %+v", parsed)
	}
	if parsed.Seed != 7 {
		t.Errorf("seed echoed = %d, want 7", parsed.Seed)
	}

	// The same measurement again: a cache hit with a byte-identical body.
	resp2, body2 := post(t, ts.URL+"/v1/measure", req)
	if resp2.StatusCode != 200 {
		t.Fatalf("warm measure: %d %s", resp2.StatusCode, body2)
	}
	if got := resp2.Header.Get("X-Clara-Cache"); got != "hit" {
		t.Errorf("repeat X-Clara-Cache = %q, want hit", got)
	}
	if !bytes.Equal(body1, body2) {
		t.Errorf("repeat altered the response body")
	}
	if n := s.metrics.Counter("clara_serve_computations_total", "endpoint", "measure").Value(); n != 1 {
		t.Errorf("computations after the repeat = %d, want 1", n)
	}

	// A different seed is a different measurement.
	req.Seed = 8
	resp3, _ := post(t, ts.URL+"/v1/measure", req)
	if resp3.StatusCode != 200 {
		t.Fatalf("reseeded measure: %d", resp3.StatusCode)
	}
	if got := resp3.Header.Get("X-Clara-Cache"); got != "miss" {
		t.Errorf("reseeded request X-Clara-Cache = %q, want miss", got)
	}

	// Faults are part of the result identity too, and the response must
	// stay valid JSON (fault report attached, no NaN leakage).
	req.Faults = "corrupt=0.05,seed=3"
	resp4, body4 := post(t, ts.URL+"/v1/measure", req)
	if resp4.StatusCode != 200 {
		t.Fatalf("faulted measure: %d %s", resp4.StatusCode, body4)
	}
	var faulted measureResponse
	if err := json.Unmarshal(body4, &faulted); err != nil {
		t.Fatalf("faulted body not JSON: %v", err)
	}
	if bytes.Equal(body1, body4) {
		t.Error("fault spec ignored by the cache key")
	}
}

// TestMeasureLongTraceIsOneWindow pins that /v1/measure simulates its
// generated trace as one window: on a 20000-packet trace, longer than the
// streamed engine's 16384-packet window, the body reports the classic
// loop's run (simulator state never restarts), its repeat is a cache hit,
// and a measure job reads the same entry.
func TestMeasureLongTraceIsOneWindow(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInflight: 1})
	req := Request{NF: "firewall", Target: "netronome",
		Workload: "packets=20000,flows=4096,rate=60000,size=300", Seed: 7}

	resp1, body := post(t, ts.URL+"/v1/measure", req)
	if resp1.StatusCode != 200 {
		t.Fatalf("measure: %d %s", resp1.StatusCode, body)
	}
	var got measureResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatalf("measure body not JSON: %v\n%s", err, body)
	}
	want := classicMeasure(t, req)
	drops := 0
	for i := range want.Packets {
		if want.Packets[i].Verdict != 0 {
			drops++
		}
	}
	if got.Packets != len(want.Packets) || got.Drops != drops || got.MeanCycles != want.MeanLatency() ||
		got.P99Cycles != want.Percentile(99) {
		t.Errorf("measure body: %d packets, %d drops, mean %.1f, p99 %.1f; classic loop: %d, %d, %.1f, %.1f",
			got.Packets, got.Drops, got.MeanCycles, got.P99Cycles,
			len(want.Packets), drops, want.MeanLatency(), want.Percentile(99))
	}

	resp2, repeat := post(t, ts.URL+"/v1/measure", req)
	if got := resp2.Header.Get("X-Clara-Cache"); got != "hit" || !bytes.Equal(repeat, body) {
		t.Errorf("repeat: cache %q, same body %v; want a byte-identical hit", got, bytes.Equal(repeat, body))
	}

	req.Kind = "measure"
	if _, resp := submitJSON(t, ts.URL, req); resp.StatusCode != 202 {
		t.Fatalf("submit measure job: status %d", resp.StatusCode)
	}
	snaps := waitAllTerminal(t, s)
	if len(snaps) != 1 || !bytes.Equal(snaps[0].Result, body) {
		t.Errorf("measure job result differs from the sync body")
	}
	if n := s.metrics.Counter("clara_serve_computations_total", "endpoint", "measure").Value(); n != 1 {
		t.Errorf("measure computations = %d, want 1", n)
	}
}

// classicMeasure runs req's measurement on the classic simulator loop,
// bypassing the server and the clara facade's measure path.
func classicMeasure(t *testing.T, req Request) *nicsim.Result {
	t.Helper()
	ctx := context.Background()
	nf, err := clara.CompileNF(firewallSrc)
	if err != nil {
		t.Fatal(err)
	}
	tgt, err := clara.NewTarget(req.Target)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := clara.ParseTrafficProfile(req.Workload)
	if err != nil {
		t.Fatal(err)
	}
	wl, err := clara.ParseWorkload(req.Workload)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := clara.GenerateTraceContext(ctx, prof)
	if err != nil {
		t.Fatal(err)
	}
	m, err := nf.MapContext(ctx, tgt, wl, clara.Hints{})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := nicsim.NewContext(ctx, nicsim.Config{
		NIC: tgt, Prog: nf.Program, Place: clara.PlacementOf(m),
		Preload: nf.Preload, Seed: req.Seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.RunContext(ctx, tr)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestSyncRequestsShareOneTarget: predict, partial, measure and colocate
// misses all compute on the one shared built-in netronome instance. Run
// concurrently (under -race, this checks that none of them writes to it),
// each answers byte for byte as it does computed alone on a fresh server.
func TestSyncRequestsShareOneTarget(t *testing.T) {
	type call struct {
		path string
		req  Request
	}
	var calls []call
	for i := 0; i < 3; i++ {
		wl := fmt.Sprintf("packets=256,flows=%d,rate=60000,size=300", 64+i)
		calls = append(calls,
			call{"/v1/predict", Request{NF: "firewall", Target: "netronome", Workload: wl}},
			call{"/v1/partial", Request{NF: "firewall", Target: "netronome", Workload: wl}},
			call{"/v1/measure", Request{NF: "firewall", Target: "netronome", Workload: wl, Seed: 7}},
			call{"/v1/colocate", Request{Target: "netronome", Workload: wl,
				Tenants: []TenantSpec{{NF: "firewall"}, {NF: "firewall", Weight: 2}}}})
	}
	_, alone := newTestServer(t, Config{})
	want := make([][]byte, len(calls))
	for i, c := range calls {
		resp, body := post(t, alone.URL+c.path, c.req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s alone: status %d (%s)", c.path, resp.StatusCode, body)
		}
		want[i] = body
	}

	_, ts := newTestServer(t, Config{MaxInflight: len(calls)})
	var wg sync.WaitGroup
	for i, c := range calls {
		wg.Add(1)
		go func(i int, c call) {
			defer wg.Done()
			code, body := postFromGoroutine(t, ts.URL+c.path, c.req)
			if code != http.StatusOK || !bytes.Equal(body, want[i]) {
				t.Errorf("%s %s concurrently: status %d, body differs from the lone answer: %v",
					c.path, c.req.Workload, code, !bytes.Equal(body, want[i]))
			}
		}(i, c)
	}
	wg.Wait()
}

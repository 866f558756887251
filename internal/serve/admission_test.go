package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"clara/internal/jobs"
)

// TestSyncMissesAreShed pins the one admission path: synchronous misses
// queue in the job engine and count against its one queue bound, and once
// they fill it to JobQueueDepth the next synchronous miss and the next job
// submission are refused by the same rule, 503 with Retry-After.
func TestSyncMissesAreShed(t *testing.T) {
	gate := make(chan struct{})
	var release sync.Once
	open := func() { release.Do(func() { close(gate) }) }
	s, ts := newTestServer(t, Config{MaxInflight: 1, JobQueueDepth: 3})
	t.Cleanup(open) // runs before the server closes, so a failed check cannot hang it
	s.testComputeGate = func(context.Context) { <-gate }

	codes := make(chan int, 3)
	advise := func(i int) {
		go func() {
			resp, _ := post(t, ts.URL+"/v1/advise", Request{
				NF: "firewall", Workload: fmt.Sprintf("flows=%d,rate=60000,size=300", 700+i),
			})
			codes <- resp.StatusCode
		}()
	}
	advise(0)
	waitFor(t, s, "the first sync miss never reached an engine worker", func() bool { return s.engine.Running() == 1 })
	advise(1)
	advise(2)
	waitFor(t, s, "two sync misses never queued in the engine", func() bool { return pending(s) == 3 })

	resp, body := post(t, ts.URL+"/v1/advise", Request{NF: "firewall", Workload: "flows=799,rate=60000,size=300"})
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("sync miss past JobQueueDepth: status %d, Retry-After %q (%s); want 503 with Retry-After",
			resp.StatusCode, resp.Header.Get("Retry-After"), body)
	}
	if !strings.Contains(string(body), "shedding load (queue)") {
		t.Errorf("sync shed body %s does not name the queue signal", body)
	}
	_, jresp := submitJSON(t, ts.URL, Request{Kind: "advise", NF: "firewall", Workload: testWorkload})
	if jresp.StatusCode != http.StatusServiceUnavailable || jresp.Header.Get("Retry-After") == "" {
		t.Fatalf("job submission past JobQueueDepth: status %d, Retry-After %q; want 503 with Retry-After",
			jresp.StatusCode, jresp.Header.Get("Retry-After"))
	}
	if n := s.metrics.Counter("clara_jobs_shed_total", "reason", "queue").Value(); n != 2 {
		t.Fatalf("queue sheds counted %d, want 2 (one sync miss, one job)", n)
	}

	open()
	for i := 0; i < 3; i++ {
		if code := <-codes; code != http.StatusOK {
			t.Errorf("admitted sync miss got %d, want 200", code)
		}
	}
}

// TestSyncComputationsAreNotJobs: a synchronous miss runs as one engine
// attempt, but it is never listed under /v1/jobs and never retried, even
// when that attempt fails with an injected transient fault.
func TestSyncComputationsAreNotJobs(t *testing.T) {
	s, ts := newTestServer(t, Config{JobMaxAttempts: 3, Chaos: &jobs.Chaos{Fail: 1, Seed: 3}})
	resp, body := post(t, ts.URL+"/v1/advise", Request{NF: "firewall", Workload: testWorkload})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("sync advise under Fail:1: status %d (%s), want 503", resp.StatusCode, body)
	}
	if n := s.metrics.Counter("clara_jobs_retries_total").Value(); n != 0 {
		t.Errorf("sync advise caused %d retries, want 0", n)
	}
	if n := s.metrics.Histogram("clara_jobs_attempt_nanos", "kind", "advise").Snapshot().Count; n != 1 {
		t.Errorf("sync advise ran %d engine attempts, want 1", n)
	}
	lresp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer lresp.Body.Close()
	var list struct {
		Jobs []jobView `json:"jobs"`
	}
	if err := json.NewDecoder(lresp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != 0 {
		t.Errorf("GET /v1/jobs lists %d jobs after a sync request, want 0: %+v", len(list.Jobs), list.Jobs)
	}
}

// TestSyncPanicAnswers500: a panicking synchronous computation is caught at
// the engine's attempt boundary and answered with the JSON error envelope.
func TestSyncPanicAnswers500(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	s.testComputeGate = func(context.Context) { panic("boom") }
	resp, body := post(t, ts.URL+"/v1/advise", Request{NF: "firewall", Workload: testWorkload})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking sync advise: status %d (%s), want 500", resp.StatusCode, body)
	}
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil || eb.Error == "" {
		t.Fatalf("500 body %q is not the JSON error envelope (err=%v)", body, err)
	}
}

// TestSyncMissesShedOnAttemptLatency pins the shedder's latency signal to
// the job engine's attempt durations: once a window of computations ran
// slower than ShedP99, the next synchronous miss is refused, 503 with
// Retry-After, for reason "latency". The shedder's window rolls at most
// once a second, so each round runs 16 slow misses (its MinSamples) and
// probes one interval after the round began; a round slow enough to straddle
// a roll proves nothing and is repeated.
func TestSyncMissesShedOnAttemptLatency(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInflight: 16, ShedP99: time.Millisecond})
	s.testComputeGate = func(context.Context) { time.Sleep(5 * time.Millisecond) }
	var seed atomic.Int64
	// measure sends a distinct miss and reports whether it was shed for
	// latency; any other answer but 200 fails the test.
	measure := func() bool {
		resp, body := post(t, ts.URL+"/v1/measure", Request{NF: "firewall", Target: "netronome",
			Workload: "packets=32,flows=8,rate=60000,size=300", Seed: seed.Add(1)})
		if resp.StatusCode == http.StatusServiceUnavailable && resp.Header.Get("Retry-After") != "" &&
			strings.Contains(string(body), "shedding load (latency)") {
			return true
		}
		if resp.StatusCode != http.StatusOK {
			t.Errorf("miss: status %d (%s), want 200 or a latency shed", resp.StatusCode, body)
		}
		return false
	}
	for round := 0; round < 5; round++ {
		start := time.Now()
		var wg sync.WaitGroup
		var shed atomic.Bool
		for i := 0; i < 16; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if measure() {
					shed.Store(true)
				}
			}()
		}
		wg.Wait()
		fast := time.Since(start) < time.Second
		time.Sleep(time.Second + 50*time.Millisecond - time.Since(start))
		if measure() || shed.Load() {
			if n := s.metrics.Counter("clara_jobs_shed_total", "reason", "latency").Value(); n < 1 {
				t.Errorf("latency sheds counted %d, want at least 1", n)
			}
			return
		}
		if fast {
			t.Fatal("16 misses slower than ShedP99 within one window, and the next miss was admitted")
		}
	}
	t.Fatal("no round of slow misses fit in one shedder window")
}

// pending is the engine's count of computations admitted but unfinished.
func pending(s *Server) int {
	n, _ := s.engine.Admission()
	return n
}

// waitFor polls cond until it holds, failing the test after 10s.
func waitFor(t *testing.T, s *Server, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("%s: running %d, pending %d", what, s.engine.Running(), pending(s))
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDeadlineBoundsQueueWait: a sync request's clamped deadline starts
// before admission, so a miss queued behind a pinned worker answers 504
// when its timeout ends, while the worker is still pinned. It never runs,
// and its queue slot is freed.
func TestDeadlineBoundsQueueWait(t *testing.T) {
	gate := make(chan struct{})
	var release sync.Once
	open := func() { release.Do(func() { close(gate) }) }
	s, ts := newTestServer(t, Config{MaxInflight: 1})
	t.Cleanup(open)
	s.testComputeGate = func(context.Context) { <-gate }
	// Were the wait unbounded, the queued miss would answer only once the
	// worker is released; the watchdog does that so the test fails instead
	// of hanging.
	var fired atomic.Bool
	watchdog := time.AfterFunc(10*time.Second, func() { fired.Store(true); open() })
	defer watchdog.Stop()

	pinned := make(chan int, 1)
	go func() {
		code, _ := postFromGoroutine(t, ts.URL+"/v1/advise", Request{NF: "firewall", Workload: "flows=900,rate=60000,size=300"})
		pinned <- code
	}()
	waitFor(t, s, "the pinning miss never reached the worker", func() bool { return s.engine.Running() == 1 })

	resp, body := post(t, ts.URL+"/v1/advise", Request{NF: "firewall",
		Workload: "flows=901,rate=60000,size=300", Timeout: "50ms"})
	if resp.StatusCode != http.StatusGatewayTimeout || fired.Load() {
		t.Fatalf("queued miss with a 50ms timeout: status %d (%s), worker released by the watchdog: %v; want 504 while the worker is pinned",
			resp.StatusCode, body, fired.Load())
	}
	if n := s.metrics.Counter("clara_serve_computations_total", "endpoint", "advise").Value(); n != 0 {
		t.Errorf("%d computations counted, want 0: the timed-out miss must not run", n)
	}
	if n := pending(s); n != 1 {
		t.Errorf("%d computations pending after the timed-out miss left the queue, want 1", n)
	}
	open()
	if code := <-pinned; code != http.StatusOK {
		t.Errorf("pinned miss got %d, want 200", code)
	}
}

// TestBreakerIgnoresEngineRefusals: the breaker sees only computations that
// ran, so sync misses the job engine refuses at its queue bound never trip
// it.
func TestBreakerIgnoresEngineRefusals(t *testing.T) {
	gate := make(chan struct{})
	var release sync.Once
	open := func() { release.Do(func() { close(gate) }) }
	s, ts := newTestServer(t, Config{MaxInflight: 1, JobQueueDepth: 1,
		Breaker: jobs.BreakerConfig{Window: 4, MinSamples: 2, FailureRate: 0.5, Cooldown: time.Minute}})
	t.Cleanup(open)
	s.testComputeGate = func(context.Context) { <-gate }

	if _, resp := submitJSON(t, ts.URL, Request{Kind: "advise", NF: "firewall", Workload: testWorkload}); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("pinning job: status %d, want 202", resp.StatusCode)
	}
	waitFor(t, s, "the pinning job never reached the worker", func() bool { return s.engine.Running() == 1 })
	for i := 0; i < 10; i++ {
		resp, body := post(t, ts.URL+"/v1/advise", Request{NF: "firewall",
			Workload: fmt.Sprintf("flows=%d,rate=60000,size=300", 960+i)})
		if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
			t.Fatalf("miss %d past the queue bound: status %d (%s), want 503 with Retry-After", i, resp.StatusCode, body)
		}
	}
	if got := s.breakers["advise"].State(); got != jobs.BreakerClosed {
		t.Fatalf("advise breaker %s after 10 queue refusals, want closed: no computation ran", got)
	}
	if n := s.metrics.Counter("clara_jobs_shed_total", "reason", "queue").Value(); n != 10 {
		t.Errorf("queue refusals counted %d, want 10", n)
	}
}

// TestBreakerRefusedProbeGivesSlotBack: an open breaker still lets cached
// answers through, and a half-open probe that the job engine refuses
// records nothing and gives its slot back, so the breaker neither re-opens
// on it nor sticks half-open; the next miss that runs closes it.
func TestBreakerRefusedProbeGivesSlotBack(t *testing.T) {
	gate := make(chan struct{})
	var release sync.Once
	open := func() { release.Do(func() { close(gate) }) }
	var pin atomic.Bool
	clk := &testClock{t: time.Unix(1000, 0)}
	s, ts := newTestServer(t, Config{MaxInflight: 1, JobQueueDepth: 1,
		Breaker: jobs.BreakerConfig{Window: 4, MinSamples: 2, FailureRate: 0.5, Cooldown: time.Minute, Now: clk.now}})
	t.Cleanup(open)
	s.testComputeGate = func(context.Context) {
		if pin.Load() {
			<-gate
		}
	}
	setChaos := func(c *jobs.Chaos) {
		s.chaosMu.Lock()
		s.chaos = c
		s.chaosMu.Unlock()
	}
	advise := func(flows int) (*http.Response, []byte) {
		return post(t, ts.URL+"/v1/advise", Request{NF: "firewall",
			Workload: fmt.Sprintf("flows=%d,rate=60000,size=300", flows)})
	}

	if resp, body := advise(1000); resp.StatusCode != http.StatusOK {
		t.Fatalf("first advise: status %d (%s), want 200", resp.StatusCode, body)
	}
	// Two computations that ran and failed trip the breaker.
	setChaos(&jobs.Chaos{Fail: 1, Seed: 1})
	for i := 0; i < 2; i++ {
		if resp, body := advise(970 + i); resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("advise under Fail:1: status %d (%s), want 503", resp.StatusCode, body)
		}
	}
	setChaos(nil)
	if got := s.breakers["advise"].State(); got != jobs.BreakerOpen {
		t.Fatalf("advise breaker %s after two failed computations, want open", got)
	}
	if resp, body := advise(1000); resp.StatusCode != http.StatusOK || resp.Header.Get("X-Clara-Cache") != "hit" {
		t.Fatalf("cached advise with the breaker open: status %d, cache %q (%s); want a 200 hit",
			resp.StatusCode, resp.Header.Get("X-Clara-Cache"), body)
	}

	// Pin the lone worker so the queue is full, then let the cooldown pass:
	// every half-open probe is refused by the queue bound, not the breaker.
	pin.Store(true)
	if _, resp := submitJSON(t, ts.URL, Request{Kind: "advise", NF: "firewall", Workload: "flows=975,rate=60000,size=300"}); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("pinning job: status %d, want 202", resp.StatusCode)
	}
	waitFor(t, s, "the pinning job never reached the worker", func() bool { return s.engine.Running() == 1 })
	clk.advance(2 * time.Minute)
	for i := 0; i < 3; i++ {
		resp, body := advise(980 + i)
		if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(body), "shedding load (queue)") {
			t.Fatalf("probe %d with the queue full: status %d (%s), want 503 from the queue bound", i, resp.StatusCode, body)
		}
	}
	if got := s.breakers["advise"].State(); got != jobs.BreakerHalfOpen {
		t.Fatalf("advise breaker %s after refused probes, want half-open", got)
	}
	open()
	waitFor(t, s, "the pinning job never finished", func() bool { return pending(s) == 0 })
	if resp, body := advise(990); resp.StatusCode != http.StatusOK {
		t.Fatalf("probe with the queue free: status %d (%s), want 200", resp.StatusCode, body)
	}
	if got := s.breakers["advise"].State(); got != jobs.BreakerClosed {
		t.Fatalf("advise breaker %s after a successful probe, want closed", got)
	}
}

// TestReadyzAgreesWithAdmission: /readyz reports the computations admitted
// but unfinished against JobQueueDepth, and is not ready exactly while the
// next admission would be refused.
func TestReadyzAgreesWithAdmission(t *testing.T) {
	gate := make(chan struct{})
	var release sync.Once
	open := func() { release.Do(func() { close(gate) }) }
	s, ts := newTestServer(t, Config{MaxInflight: 1, JobQueueDepth: 2})
	t.Cleanup(open)
	s.testComputeGate = func(context.Context) { <-gate }
	submit := func(flows int) (jobView, int) {
		v, resp := submitJSON(t, ts.URL, Request{Kind: "advise", NF: "firewall",
			Workload: fmt.Sprintf("flows=%d,rate=60000,size=300", flows)})
		return v, resp.StatusCode
	}
	ready := func(wantCode, wantDepth int) {
		t.Helper()
		code, body := getReady(t, ts.URL)
		var rr readyResponse
		if err := json.Unmarshal(body, &rr); err != nil {
			t.Fatal(err)
		}
		if code != wantCode || rr.QueueDepth != wantDepth || rr.QueueBound != 2 {
			t.Fatalf("/readyz: %d %s; want %d with queue_depth %d of 2", code, body, wantCode, wantDepth)
		}
	}

	if _, code := submit(1100); code != http.StatusAccepted {
		t.Fatalf("first job: status %d, want 202", code)
	}
	waitFor(t, s, "the first job never reached the worker", func() bool { return s.engine.Running() == 1 })
	ready(http.StatusOK, 1)
	queued, code := submit(1101)
	if code != http.StatusAccepted {
		t.Fatalf("second job: status %d, want 202", code)
	}
	ready(http.StatusServiceUnavailable, 2)
	if _, code := submit(1102); code != http.StatusServiceUnavailable {
		t.Fatalf("job past the bound: status %d, want 503", code)
	}
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+queued.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	ready(http.StatusOK, 1)
	open()
}

// testClock is a settable clock safe for concurrent use.
type testClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *testClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *testClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

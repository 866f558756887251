package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"clara/internal/jobs"
)

// TestSyncMissesAreShed pins the one admission path: synchronous misses
// queue in the job engine, so the shedder sees them, and once they fill
// the queue to ShedQueue the next synchronous miss and the next job
// submission are refused by the same rule, 503 with Retry-After.
func TestSyncMissesAreShed(t *testing.T) {
	gate := make(chan struct{})
	var release sync.Once
	open := func() { release.Do(func() { close(gate) }) }
	s, ts := newTestServer(t, Config{MaxInflight: 1, JobQueueDepth: 8, ShedQueue: 2})
	t.Cleanup(open) // runs before the server closes, so a failed check cannot hang it
	s.testComputeGate = func() { <-gate }

	codes := make(chan int, 3)
	advise := func(i int) {
		go func() {
			resp, _ := post(t, ts.URL+"/v1/advise", Request{
				NF: "firewall", Workload: fmt.Sprintf("flows=%d,rate=60000,size=300", 700+i),
			})
			codes <- resp.StatusCode
		}()
	}
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("%s: running %d, queued %d", what, s.engine.Running(), s.engine.Depth())
			}
			time.Sleep(time.Millisecond)
		}
	}
	advise(0)
	waitFor("the first sync miss never reached an engine worker", func() bool { return s.engine.Running() == 1 })
	advise(1)
	advise(2)
	waitFor("two sync misses never queued in the engine", func() bool { return s.engine.Depth() == 2 })

	resp, body := post(t, ts.URL+"/v1/advise", Request{NF: "firewall", Workload: "flows=799,rate=60000,size=300"})
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("sync miss past ShedQueue: status %d, Retry-After %q (%s); want 503 with Retry-After",
			resp.StatusCode, resp.Header.Get("Retry-After"), body)
	}
	if !strings.Contains(string(body), "shedding load (queue)") {
		t.Errorf("sync shed body %s does not name the queue signal", body)
	}
	_, jresp := submitJSON(t, ts.URL, Request{Kind: "advise", NF: "firewall", Workload: testWorkload})
	if jresp.StatusCode != http.StatusServiceUnavailable || jresp.Header.Get("Retry-After") == "" {
		t.Fatalf("job submission past ShedQueue: status %d, Retry-After %q; want 503 with Retry-After",
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
	if n := s.metrics.Histogram("clara_jobs_attempt_nanos", "kind", "advise").Count(); n != 1 {
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
	s.testComputeGate = func() { panic("boom") }
	resp, body := post(t, ts.URL+"/v1/advise", Request{NF: "firewall", Workload: testWorkload})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking sync advise: status %d (%s), want 500", resp.StatusCode, body)
	}
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil || eb.Error == "" {
		t.Fatalf("500 body %q is not the JSON error envelope (err=%v)", body, err)
	}
}

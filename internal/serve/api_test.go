package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"clara/internal/jobs"
)

func TestOversizedBodyRejectedWith413(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// A syntactically valid request whose inline source pads past the 1 MiB
	// decode bound.
	big := Request{Source: firewallSrc + "\n// " + strings.Repeat("x", 1<<20), Workload: testWorkload}
	body, err := json.Marshal(big)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/advise", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
	var eb errorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatalf("413 body is not the JSON error envelope: %v", err)
	}
	if !strings.Contains(eb.Error, "too large") {
		t.Fatalf("error %q does not say the body was too large", eb.Error)
	}
}

func TestJobsAPILifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxInflight: 2})

	// Submit an advise job and poll it to completion over HTTP.
	v, resp := submitJSON(t, ts.URL, Request{Kind: "advise", NF: "firewall", Workload: testWorkload})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d, want 202", resp.StatusCode)
	}
	var final jobView
	deadline := time.Now().Add(10 * time.Second)
	for {
		r, err := http.Get(ts.URL + "/v1/jobs/" + v.ID)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(r.Body).Decode(&final); err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if final.Terminal {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in state %s", v.ID, final.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if final.State != string(jobs.StateDone) {
		t.Fatalf("job settled as %s (%s), want done", final.State, final.Error)
	}
	if len(final.Result) == 0 {
		t.Fatal("done job carries no result")
	}
	var adv adviseResponse
	if err := json.Unmarshal(final.Result, &adv); err != nil {
		t.Fatalf("job result is not an advise response: %v", err)
	}
	if adv.NF != "firewall" {
		t.Fatalf("result NF %q, want firewall", adv.NF)
	}

	// The async result landed in the shared cache: the synchronous endpoint
	// answers it as a byte-identical hit.
	syncResp, syncBody := post(t, ts.URL+"/v1/advise", Request{NF: "firewall", Workload: testWorkload})
	if syncResp.StatusCode != http.StatusOK || syncResp.Header.Get("X-Clara-Cache") != "hit" {
		t.Fatalf("sync follow-up: status %d cache %q, want 200 hit",
			syncResp.StatusCode, syncResp.Header.Get("X-Clara-Cache"))
	}
	if !bytes.Equal(syncBody, []byte(final.Result)) {
		t.Fatal("sync answer differs from the async job result")
	}

	// List shows the job; canceling a terminal job is a 409; unknown is 404.
	r, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var listing struct {
		Jobs []jobView `json:"jobs"`
	}
	if err := json.NewDecoder(r.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if len(listing.Jobs) != 1 || listing.Jobs[0].ID != v.ID {
		t.Fatalf("listing %+v, want exactly job %s", listing.Jobs, v.ID)
	}
	if len(listing.Jobs[0].Result) != 0 {
		t.Fatal("listing inlines result bodies; it should stay light")
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+v.ID, nil)
	dr, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dr.Body.Close()
	if dr.StatusCode != http.StatusConflict {
		t.Fatalf("cancel of a done job: status %d, want 409", dr.StatusCode)
	}
	gr, err := http.Get(ts.URL + "/v1/jobs/j-999999")
	if err != nil {
		t.Fatal(err)
	}
	gr.Body.Close()
	if gr.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: status %d, want 404", gr.StatusCode)
	}

	// Bad submissions are 400s, not accepted-then-failed jobs.
	if _, resp := submitJSON(t, ts.URL, Request{Kind: "transmogrify", NF: "firewall"}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown kind: status %d, want 400", resp.StatusCode)
	}
	if _, resp := submitJSON(t, ts.URL, Request{Kind: "advise"}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing nf/source: status %d, want 400", resp.StatusCode)
	}
}

func TestJobsSweepKind(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInflight: 2})
	v, resp := submitJSON(t, ts.URL, Request{Kind: "sweep", NF: "firewall", Workload: testWorkload})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	deadline := time.Now().Add(20 * time.Second)
	var snap jobs.Snapshot
	for {
		var ok bool
		snap, ok = s.engine.Get(v.ID)
		if !ok {
			t.Fatal("sweep job lost")
		}
		if snap.State.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep stuck in %s", snap.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if snap.State != jobs.StateDone {
		t.Fatalf("sweep settled as %s (%s)", snap.State, snap.Error)
	}
	var sw sweepResponse
	if err := json.Unmarshal(snap.Result, &sw); err != nil {
		t.Fatal(err)
	}
	if len(sw.Predictions) < 2 {
		t.Fatalf("sweep covered %d targets, want one prediction per known target", len(sw.Predictions))
	}
	for _, p := range sw.Predictions {
		if p.Prediction == nil {
			t.Fatalf("target %s has no prediction", p.Target)
		}
	}
}

func TestReadyzHealthyServer(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, body := getReady(t, ts.URL)
	if code != http.StatusOK {
		t.Fatalf("/readyz on a healthy server: %d (%s)", code, body)
	}
	var rr readyResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	if !rr.Ready || rr.Draining || rr.SelfCheck != "ok" {
		t.Fatalf("ready body %+v, want ready with passing self-check", rr)
	}
	if len(rr.Breakers) != 5 {
		t.Fatalf("%d breakers reported, want 5 (advise, predict, partial, measure, colocate)", len(rr.Breakers))
	}
	for endpoint, state := range rr.Breakers {
		if state != jobs.BreakerClosed {
			t.Fatalf("breaker %s reports %s on a fresh server", endpoint, state)
		}
	}
}

func TestReadyzReportsOpenBreaker(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Breaker: jobs.BreakerConfig{Window: 4, MinSamples: 2, FailureRate: 0.5, Cooldown: time.Minute},
		Chaos:   &jobs.Chaos{Fail: 1, Seed: 5},
	})
	for i := 0; i < 2; i++ {
		post(t, ts.URL+"/v1/predict", Request{
			NF: "firewall", Target: "netronome",
			Workload: fmt.Sprintf("flows=%d,rate=60000,size=300", 600+i),
		})
	}
	if got := s.breakers["predict"].State(); got != jobs.BreakerOpen {
		t.Fatalf("predict breaker %s, want open", got)
	}
	code, body := getReady(t, ts.URL)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz with an open breaker: %d (%s)", code, body)
	}
	var rr readyResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Ready || rr.Breakers["predict"] != jobs.BreakerOpen {
		t.Fatalf("ready body %+v, want not-ready with predict open", rr)
	}
}

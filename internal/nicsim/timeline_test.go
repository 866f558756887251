package nicsim

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"clara/internal/lnic"
	"clara/internal/nf"
	"clara/internal/workload"
)

// simulateTimeline runs a small firewall trace with timeline recording on.
func simulateTimeline(t *testing.T, packets int) *Result {
	t.Helper()
	nic := lnic.Netronome()
	prog := nf.Firewall(65536).MustCompile()
	sim, err := NewContext(context.Background(), Config{
		NIC: nic, Prog: prog, Place: DefaultPlacement(nic, prog),
		Seed: 7, Timeline: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := workload.DefaultProfile()
	p.Packets = packets
	p.Flows = 32
	tr, err := workload.GenerateContext(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.RunContext(context.Background(), tr)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestTimelineRecordsEveryPacket(t *testing.T) {
	const packets = 200
	res := simulateTimeline(t, packets)
	tl := res.Timeline
	if tl == nil {
		t.Fatal("Config.Timeline set but Result.Timeline is nil")
	}
	if tl.NF == "" || tl.NIC == "" || tl.ClockGHz <= 0 {
		t.Errorf("timeline header incomplete: %+v", tl)
	}

	seen := map[int]bool{}
	stages := map[string]bool{}
	for _, h := range tl.Hops {
		if h.Packet < 0 || h.Packet >= packets {
			t.Fatalf("hop references packet %d outside [0,%d)", h.Packet, packets)
		}
		if h.Dur < 0 || h.Wait < 0 || h.Depth < 0 {
			t.Fatalf("negative duration/wait/depth in hop %+v", h)
		}
		seen[h.Packet] = true
		stages[h.Stage] = true
	}
	if len(seen) != packets {
		t.Errorf("timeline covers %d packets, want %d", len(seen), packets)
	}
	// Every completed packet must at least enter, dispatch, execute and leave.
	for _, want := range []string{"ingress-hub", "dma", "dispatch", "npu", "egress"} {
		if !stages[want] {
			t.Errorf("no %q hops recorded (stages: %v)", want, stages)
		}
	}
}

func TestTimelineDisabledByDefault(t *testing.T) {
	res := simulate(t, nf.Firewall(65536), nil, nil)
	if res.Timeline != nil {
		t.Error("Result.Timeline non-nil without Config.Timeline")
	}
}

// TestTimelineChromeExport validates the trace_event JSON shape: one
// metadata event per lane, complete events for every hop, and monotone
// non-negative timestamps.
func TestTimelineChromeExport(t *testing.T) {
	res := simulateTimeline(t, 50)
	var buf bytes.Buffer
	if err := res.Timeline.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("empty traceEvents")
	}
	lanes := map[int]bool{}
	var xEvents, mEvents int
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "M":
			mEvents++
			if e.Args["name"] == "" {
				t.Errorf("metadata event without a thread name: %+v", e)
			}
			lanes[e.Tid] = true
		case "X":
			xEvents++
			if e.Ts < 0 || e.Dur < 0 {
				t.Errorf("negative ts/dur: %+v", e)
			}
			if !strings.HasPrefix(e.Name, "pkt") {
				t.Errorf("unexpected event name %q", e.Name)
			}
			if _, ok := e.Args["packet"]; !ok {
				t.Errorf("X event missing packet arg: %+v", e)
			}
		default:
			t.Errorf("unexpected phase %q", e.Ph)
		}
	}
	if mEvents == 0 || xEvents != len(res.Timeline.Hops) {
		t.Errorf("got %d metadata + %d complete events for %d hops", mEvents, xEvents, len(res.Timeline.Hops))
	}
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" && !lanes[e.Tid] {
			t.Errorf("event on unnamed lane tid=%d", e.Tid)
		}
	}
}

// TestTimelineJSONExport sanity-checks the plain JSON form round-trips.
func TestTimelineJSONExport(t *testing.T) {
	res := simulateTimeline(t, 20)
	data, err := json.Marshal(res.Timeline)
	if err != nil {
		t.Fatal(err)
	}
	var back Timeline
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Hops) != len(res.Timeline.Hops) {
		t.Errorf("round-trip lost hops: %d != %d", len(back.Hops), len(res.Timeline.Hops))
	}
}

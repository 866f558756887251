package nicsim

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Timeline records every packet's journey through the simulated NIC as a
// sequence of hops — ingress hub, DMA, parser engine, NPU dispatch, NPU
// execution, accelerator FIFO visits, per-region memory totals, egress — each
// with cycle timestamps, the queue wait it absorbed, and the queue depth the
// packet saw on arrival. It is the "performance clarity" view of the
// simulator itself: where exactly did this packet's latency come from?
//
// Collection is opt-in (Config.Timeline); a nil tracer costs one pointer
// check per hop. The trace is deterministic for a fixed seed, so it is
// covered by the simulator determinism suite, and exports both as plain JSON
// (encoding/json, through its field tags) and as Chrome trace_event format
// (WriteChromeTrace) loadable in chrome://tracing or Perfetto.
type Timeline struct {
	// NF and NIC name the run; ClockGHz converts cycles to wall time for
	// the Chrome export.
	NF       string  `json:"nf"`
	NIC      string  `json:"nic"`
	ClockGHz float64 `json:"clock_ghz"`
	Hops     []Hop   `json:"hops"`
}

// Hop is one stage visit by one packet. Cycles are absolute simulation time.
type Hop struct {
	Packet int `json:"packet"`
	// Stage names the hop: "ingress-hub", "dma", "parse", "dispatch",
	// "npu", "accel:<class>", "mem:<region>" (per-packet aggregate),
	// "egress", "egress-hub".
	Stage string `json:"stage"`
	// Unit is the server/thread index within the stage (-1 when the stage
	// has no server pool).
	Unit int `json:"unit"`
	// Start is when service began; Dur its length in cycles.
	Start float64 `json:"start_cycles"`
	Dur   float64 `json:"dur_cycles"`
	// Wait is the queueing delay absorbed before Start.
	Wait float64 `json:"wait_cycles"`
	// Depth is the number of busy servers observed at arrival — the queue
	// depth the packet saw.
	Depth int `json:"queue_depth"`
}

// add appends a hop; nil tracers drop it (the disabled fast path).
func (tl *Timeline) add(h Hop) {
	if tl == nil {
		return
	}
	tl.Hops = append(tl.Hops, h)
}

// chromeEvent is one trace_event entry (the subset of fields the format
// requires; ph "X" = complete event, ph "M" = metadata).
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteChromeTrace writes the timeline in Chrome trace_event JSON ("JSON
// object format": {"traceEvents": [...]}). Each stage/unit pair becomes a
// named thread lane; hops become complete ("X") events whose args carry the
// packet index, queue wait and observed depth. Cycle timestamps convert to
// microseconds via the NIC clock so Perfetto's time axis reads as wall time
// on the simulated hardware.
func (tl *Timeline) WriteChromeTrace(w io.Writer) error {
	clock := tl.ClockGHz
	if clock <= 0 {
		clock = 1
	}
	toUS := func(cycles float64) float64 { return cycles / (clock * 1e3) }

	type lane struct {
		stage string
		unit  int
	}
	laneID := map[lane]int{}
	var laneOrder []lane
	for _, h := range tl.Hops {
		l := lane{h.Stage, h.Unit}
		if _, ok := laneID[l]; !ok {
			laneID[l] = len(laneOrder) + 1 // tid 0 is reserved for metadata
			laneOrder = append(laneOrder, l)
		}
	}
	// Stable lane numbering regardless of first-visit order, so two runs of
	// the same seed emit byte-identical traces.
	sort.Slice(laneOrder, func(i, j int) bool {
		if laneOrder[i].stage != laneOrder[j].stage {
			return laneOrder[i].stage < laneOrder[j].stage
		}
		return laneOrder[i].unit < laneOrder[j].unit
	})
	for i, l := range laneOrder {
		laneID[l] = i + 1
	}

	events := make([]chromeEvent, 0, len(tl.Hops)+len(laneOrder))
	for _, l := range laneOrder {
		name := l.stage
		if l.unit >= 0 {
			name = fmt.Sprintf("%s/%d", l.stage, l.unit)
		}
		events = append(events, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: 1, Tid: laneID[l],
			Args: map[string]any{"name": name},
		})
	}
	for _, h := range tl.Hops {
		events = append(events, chromeEvent{
			Name: fmt.Sprintf("pkt%d %s", h.Packet, h.Stage),
			Ph:   "X",
			Ts:   toUS(h.Start),
			Dur:  toUS(h.Dur),
			Pid:  1,
			Tid:  laneID[lane{h.Stage, h.Unit}],
			Args: map[string]any{
				"packet":      h.Packet,
				"wait_cycles": h.Wait,
				"queue_depth": h.Depth,
			},
		})
	}
	doc := struct {
		TraceEvents     []chromeEvent  `json:"traceEvents"`
		DisplayTimeUnit string         `json:"displayTimeUnit"`
		OtherData       map[string]any `json:"otherData"`
	}{
		TraceEvents:     events,
		DisplayTimeUnit: "ns",
		OtherData: map[string]any{
			"nf": tl.NF, "nic": tl.NIC, "clock_ghz": tl.ClockGHz,
		},
	}
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}

// busyAfter counts servers still busy at time t — the queue depth an
// arrival at t observes.
func busyAfter(servers []float64, t float64) int {
	n := 0
	for _, free := range servers {
		if free > t {
			n++
		}
	}
	return n
}

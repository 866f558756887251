// Package workload builds and characterizes the traffic Clara predicts
// against (§3.5 of the paper): either a pcap trace or an abstract profile
// such as "80% TCP vs 20% UDP" or "10k concurrent TCP flows with 300-byte
// average packet size". Synthetic traces are deterministic given a seed, so
// predictions and simulations see identical packet streams.
package workload

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"time"

	"clara/internal/budget"
	"clara/internal/packet"
	"clara/internal/pcap"
)

// FlowDist selects how packets are spread across concurrent flows.
type FlowDist uint8

// Flow popularity distributions.
const (
	DistUniform FlowDist = iota
	DistZipf
)

func (d FlowDist) String() string {
	switch d {
	case DistUniform:
		return "uniform"
	case DistZipf:
		return "zipf"
	default:
		return fmt.Sprintf("dist(%d)", uint8(d))
	}
}

// Profile is an abstract workload description.
type Profile struct {
	Name    string
	Packets int     // packets to generate
	RatePPS float64 // offered load, packets per second
	Flows   int     // concurrent flows
	// FlowDist with ZipfS skews packet popularity across flows
	// ("flow distributions could result in different working set sizes",
	// §2.1).
	FlowDist FlowDist
	ZipfS    float64 // Zipf exponent (>1)
	// TCPFraction of flows carry TCP; the rest UDP. TCP flows open with a
	// SYN packet ("TCP SYN packets may require flow state setup", §2.1).
	TCPFraction float64
	// PayloadBytes is the mean payload size; PayloadJitter adds a uniform
	// ±jitter. Zero jitter means fixed-size packets.
	PayloadBytes  int
	PayloadJitter int
	// Poisson arrival jitter; false means constant bit rate spacing.
	Poisson bool
	Seed    int64
}

// DefaultProfile matches the paper's validation setup: 60k packets per
// second (§4), mid-size packets, a few thousand flows.
func DefaultProfile() Profile {
	return Profile{
		Name:         "default",
		Packets:      20000,
		RatePPS:      60000,
		Flows:        1000,
		FlowDist:     DistUniform,
		TCPFraction:  0.8,
		PayloadBytes: 300,
		Seed:         1,
	}
}

// TracePacket is one packet with its arrival time.
type TracePacket struct {
	Data []byte
	// ArrivalNs is the arrival timestamp in nanoseconds from trace start.
	ArrivalNs float64
}

// Trace is a replayable packet sequence.
//
// A Trace is replayed far more often than it is built: every simulator run,
// eval sweep point and serving request walks the same frames, so the first
// call to Decoded parses the whole trace once, and the first call to Stats
// summarizes it once, each cached for the process lifetime. Packets must not
// be mutated after the first of those calls, and a Trace must not be copied
// by value once in use (the caches ride the struct).
type Trace struct {
	Name    string
	Packets []TracePacket

	// decodeOnce guards the decoded-frame cache below. The cached packets
	// are read-only: consumers copy the struct they need into their own
	// scratch and never write through its slices (Data/Payload/Options
	// alias the wire bytes). Anything that must mutate frame bytes — the
	// simulator's fault-injected corruption — copies the wire data and
	// decodes the copy fresh instead of touching the cache.
	decodeOnce sync.Once
	decoded    []packet.Packet
	decodeErrs []bool

	// statsOnce guards the summary Stats returns, computed on first use
	// under the same read-only contract as the decode cache.
	statsOnce sync.Once
	stats     Stats
}

// Decoded returns the trace's frames decoded once and cached: decoded[i] is
// the parsed view of Packets[i].Data and decodeErr[i] reports whether the
// parser rejected that frame (a rejected frame still carries the layers that
// did parse, exactly as packet.Decode leaves them). Both slices are shared
// and read-only; the decode runs at most once per Trace, and concurrent
// callers are safe. Callers that modify packet contents must work on their
// own copy of the wire bytes.
func (t *Trace) Decoded() (decoded []packet.Packet, decodeErr []bool) {
	t.decodeOnce.Do(func() {
		t.decoded = make([]packet.Packet, len(t.Packets))
		t.decodeErrs = make([]bool, len(t.Packets))
		for i := range t.Packets {
			if err := t.decoded[i].Decode(t.Packets[i].Data); err != nil {
				t.decodeErrs[i] = true
			}
		}
	})
	return t.decoded, t.decodeErrs
}

// Stats summarizes a trace; the predictor consumes these expectations.
// Fractions and averages are taken over decoded packets only, so frames the
// parser rejects (truncated captures, non-IPv4 traffic) don't dilute them;
// DecodeErrors reports how many frames were excluded.
type Stats struct {
	Packets      int // total frames in the trace
	Decoded      int // frames the packet parser accepted
	DecodeErrors int // frames excluded from fractions and averages
	Flows        int
	TCPFraction  float64
	SYNFraction  float64
	AvgPayload   float64
	AvgWire      float64 // average frame size on the wire
	DurationNs   float64
	RatePPS      float64
	// FlowHitFraction estimates the probability a packet belongs to a flow
	// already seen (relevant for flow caches and stateful tables).
	FlowHitFraction float64
}

// GenerateContext synthesizes a trace from the profile under a cancellable,
// budgeted context: the context's event budget caps the packet count (a
// hostile "packets=1e9" profile trips it instead of allocating gigabytes),
// and cancellation aborts synthesis mid-trace with the packets generated so
// far attached.
func GenerateContext(ctx context.Context, p Profile) (*Trace, error) {
	if lim := budget.From(ctx); lim.SimEvents > 0 && int64(p.Packets) > lim.SimEvents {
		return nil, &budget.ExceededError{
			Resource: "trace-packets", Limit: lim.SimEvents,
			Stage: "generate", NF: p.Name,
		}
	}
	if p.Packets <= 0 {
		return nil, fmt.Errorf("workload: profile %q has no packets", p.Name)
	}
	if p.Flows <= 0 {
		return nil, fmt.Errorf("workload: profile %q has no flows", p.Name)
	}
	if p.RatePPS <= 0 {
		return nil, fmt.Errorf("workload: profile %q has no rate", p.Name)
	}
	if p.TCPFraction < 0 || p.TCPFraction > 1 {
		return nil, fmt.Errorf("workload: TCP fraction %v out of range", p.TCPFraction)
	}
	if p.PayloadBytes < 0 {
		return nil, fmt.Errorf("workload: profile %q has negative payload size %d", p.Name, p.PayloadBytes)
	}
	if p.PayloadJitter < 0 {
		return nil, fmt.Errorf("workload: profile %q has negative payload jitter %d", p.Name, p.PayloadJitter)
	}
	if p.FlowDist == DistZipf && p.ZipfS <= 1 {
		return nil, fmt.Errorf("workload: zipf exponent must exceed 1, got %v", p.ZipfS)
	}
	rng := rand.New(rand.NewSource(p.Seed))

	type flowState struct {
		flow   packet.Flow4
		tcp    bool
		opened bool
		seq    uint32
	}
	flows := make([]flowState, p.Flows)
	for i := range flows {
		f := packet.Flow4{
			Src:     packet.IPv4FromUint32(0x0a000000 | uint32(rng.Intn(1<<24))), // 10.0.0.0/8
			Dst:     packet.IPv4FromUint32(0xc0a80000 | uint32(rng.Intn(1<<16))), // 192.168/16
			SrcPort: uint16(1024 + rng.Intn(64000)),
			DstPort: uint16(1 + rng.Intn(1024)),
		}
		tcp := rng.Float64() < p.TCPFraction
		if tcp {
			f.Proto = packet.ProtoTCP
		} else {
			f.Proto = packet.ProtoUDP
		}
		flows[i] = flowState{flow: f, tcp: tcp, seq: rng.Uint32()}
	}

	var zipf *rand.Zipf
	if p.FlowDist == DistZipf {
		zipf = rand.NewZipf(rng, p.ZipfS, 1, uint64(p.Flows-1))
	}

	eth := packet.Ethernet{
		Dst: packet.MAC{0x02, 0, 0, 0, 0, 1},
		Src: packet.MAC{0x02, 0, 0, 0, 0, 2},
	}
	interNs := 1e9 / p.RatePPS
	var bld packet.Builder
	tr := &Trace{Name: p.Name, Packets: make([]TracePacket, 0, p.Packets)}
	now := 0.0
	payload := make([]byte, 0, p.PayloadBytes+p.PayloadJitter)
	for i := 0; i < p.Packets; i++ {
		if i&1023 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, &budget.CanceledError{
					Stage: "generate", NF: p.Name, Err: err, Partial: tr,
				}
			}
		}
		var fi int
		if zipf != nil {
			fi = int(zipf.Uint64())
		} else {
			fi = rng.Intn(p.Flows)
		}
		fs := &flows[fi]

		size := p.PayloadBytes
		if p.PayloadJitter > 0 {
			size += rng.Intn(2*p.PayloadJitter+1) - p.PayloadJitter
		}
		if size < 0 {
			size = 0
		}
		payload = payload[:0]
		for len(payload) < size {
			payload = append(payload, byte(rng.Intn(256)))
		}

		ip := packet.IPv4{TTL: 64, ID: uint16(i), Src: fs.flow.Src, Dst: fs.flow.Dst}
		var frame []byte
		if fs.tcp {
			t := packet.TCP{
				SrcPort: fs.flow.SrcPort, DstPort: fs.flow.DstPort,
				Seq: fs.seq, Window: 65535,
			}
			if !fs.opened {
				t.Flags = packet.FlagSYN
				fs.opened = true
			} else {
				t.Flags = packet.FlagACK | packet.FlagPSH
			}
			fs.seq += uint32(size)
			frame = bld.TCPv4(eth, ip, t, payload)
		} else {
			u := packet.UDP{SrcPort: fs.flow.SrcPort, DstPort: fs.flow.DstPort}
			frame = bld.UDPv4(eth, ip, u, payload)
		}
		data := append([]byte(nil), frame...)

		if p.Poisson {
			now += rng.ExpFloat64() * interNs
		} else {
			now += interNs
		}
		tr.Packets = append(tr.Packets, TracePacket{Data: data, ArrivalNs: now})
	}
	budget.UsageFrom(ctx).AddTracePackets(int64(len(tr.Packets)))
	return tr, nil
}

// Stats returns the trace's summary statistics. They are computed once, on
// the first call, and cached for the process lifetime under the same
// contract as Decoded: Packets must not be mutated after that first call,
// and concurrent callers are safe. The computation consumes the shared
// decoded cache, so a trace that has already been simulated pays no second
// parse and a Stats call warms the cache for the simulator.
func (t *Trace) Stats() Stats {
	t.statsOnce.Do(func() { t.stats = t.computeStats() })
	return t.stats
}

// computeStats summarizes the trace. The duration spans the earliest to the
// latest arrival, so a capture whose timestamps go backwards still reports
// its true span.
func (t *Trace) computeStats() Stats {
	var s Stats
	s.Packets = len(t.Packets)
	if s.Packets == 0 {
		return s
	}
	decoded, decodeErr := t.Decoded()
	seen := map[packet.Flow4]bool{}
	var tcp, syn, hits int
	var payloadSum, wireSum float64
	first, last := t.Packets[0].ArrivalNs, t.Packets[0].ArrivalNs
	for i := range t.Packets {
		first = min(first, t.Packets[i].ArrivalNs)
		last = max(last, t.Packets[i].ArrivalNs)
		if decodeErr[i] {
			s.DecodeErrors++
			continue
		}
		p := &decoded[i]
		s.Decoded++
		wireSum += float64(len(t.Packets[i].Data))
		payloadSum += float64(len(p.Payload))
		if p.HasTCP {
			tcp++
			if p.TCP.Flags.Has(packet.FlagSYN) {
				syn++
			}
		}
		if f, ok := p.Flow(); ok {
			if seen[f] {
				hits++
			}
			seen[f] = true
		}
	}
	s.Flows = len(seen)
	if s.Decoded > 0 {
		s.TCPFraction = float64(tcp) / float64(s.Decoded)
		s.SYNFraction = float64(syn) / float64(s.Decoded)
		s.AvgPayload = payloadSum / float64(s.Decoded)
		s.AvgWire = wireSum / float64(s.Decoded)
		s.FlowHitFraction = float64(hits) / float64(s.Decoded)
	}
	s.DurationNs = last - first
	if s.DurationNs > 0 {
		s.RatePPS = float64(s.Packets-1) / (s.DurationNs / 1e9)
	}
	return s
}

// WritePcap persists the trace in pcap format.
func (t *Trace) WritePcap(w io.Writer) error {
	pw, err := pcap.NewWriter(w, pcap.LinkTypeEthernet, 0)
	if err != nil {
		return err
	}
	base := time.Unix(0, 0)
	for _, pk := range t.Packets {
		if err := pw.WritePacket(base.Add(time.Duration(pk.ArrivalNs)), pk.Data); err != nil {
			return err
		}
	}
	return nil
}

// ReadPcapContext loads a trace from pcap data under a cancellable,
// budgeted context. It is one unbounded TraceReader window: the context's
// event budget caps how many records are ingested (pcap files carry no
// record count up front, so an unbounded file otherwise streams into
// memory), and both budget and cancellation errors carry the trace read so
// far, which is also added to the context's budget usage. A capture that
// fails mid-record returns an *IngestError that unwraps to the cause (e.g.
// pcap.ErrTruncated).
func ReadPcapContext(ctx context.Context, r io.Reader, name string) (*Trace, error) {
	rd, err := NewTraceReader(r, name)
	if err != nil {
		return nil, err
	}
	win, _, err := rd.NextWindow(ctx, math.MaxInt)
	switch {
	case err == io.EOF:
		return &Trace{Name: name}, nil
	case err != nil:
		return nil, err
	}
	return win, nil
}

// ParseProfile parses a compact key=value spec such as
// "packets=20000,rate=60000,flows=10000,tcp=0.8,size=300,jitter=64,zipf=1.2,seed=7".
// Unknown keys are rejected; omitted keys keep DefaultProfile values.
func ParseProfile(spec string) (Profile, error) {
	p := DefaultProfile()
	if strings.TrimSpace(spec) == "" {
		return p, nil
	}
	p.Name = spec
	for _, kv := range strings.Split(spec, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		parts := strings.SplitN(kv, "=", 2)
		if len(parts) != 2 {
			return p, fmt.Errorf("workload: bad field %q (want key=value)", kv)
		}
		key, val := strings.TrimSpace(parts[0]), strings.TrimSpace(parts[1])
		var err error
		switch key {
		case "packets":
			p.Packets, err = strconv.Atoi(val)
		case "rate":
			p.RatePPS, err = strconv.ParseFloat(val, 64)
		case "flows":
			p.Flows, err = strconv.Atoi(val)
		case "tcp":
			p.TCPFraction, err = strconv.ParseFloat(val, 64)
		case "size":
			p.PayloadBytes, err = strconv.Atoi(val)
			if err == nil && p.PayloadBytes < 0 {
				err = fmt.Errorf("negative payload size %d", p.PayloadBytes)
			}
		case "jitter":
			p.PayloadJitter, err = strconv.Atoi(val)
			if err == nil && p.PayloadJitter < 0 {
				err = fmt.Errorf("negative payload jitter %d", p.PayloadJitter)
			}
		case "zipf":
			p.FlowDist = DistZipf
			p.ZipfS, err = strconv.ParseFloat(val, 64)
		case "poisson":
			p.Poisson, err = strconv.ParseBool(val)
		case "seed":
			p.Seed, err = strconv.ParseInt(val, 10, 64)
		default:
			return p, fmt.Errorf("workload: unknown field %q", key)
		}
		if err != nil {
			return p, fmt.Errorf("workload: field %q: %v", key, err)
		}
	}
	return p, nil
}

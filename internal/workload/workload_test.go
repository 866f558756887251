package workload

import (
	"bytes"
	"math"
	"reflect"
	"sync"
	"testing"

	"clara/internal/packet"
)

func TestGenerateBasic(t *testing.T) {
	p := DefaultProfile()
	p.Packets = 2000
	tr, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Packets) != 2000 {
		t.Fatalf("packets = %d", len(tr.Packets))
	}
	s := tr.Stats()
	if math.Abs(s.TCPFraction-0.8) > 0.06 {
		t.Errorf("TCP fraction = %v, want ≈0.8", s.TCPFraction)
	}
	if math.Abs(s.AvgPayload-300) > 1 {
		t.Errorf("avg payload = %v, want 300", s.AvgPayload)
	}
	if math.Abs(s.RatePPS-60000)/60000 > 0.01 {
		t.Errorf("rate = %v, want ≈60000", s.RatePPS)
	}
	if s.Flows > p.Flows {
		t.Errorf("distinct flows %d > declared %d", s.Flows, p.Flows)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p := DefaultProfile()
	p.Packets = 500
	a, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Packets {
		if !bytes.Equal(a.Packets[i].Data, b.Packets[i].Data) {
			t.Fatalf("packet %d differs across identical seeds", i)
		}
		if a.Packets[i].ArrivalNs != b.Packets[i].ArrivalNs {
			t.Fatalf("timestamp %d differs", i)
		}
	}
	p.Seed = 99
	c, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a.Packets[0].Data, c.Packets[0].Data) {
		t.Error("different seeds produced identical first packet")
	}
}

func TestTCPFlowsOpenWithSYN(t *testing.T) {
	p := DefaultProfile()
	p.Packets = 3000
	p.Flows = 100
	p.TCPFraction = 1.0
	tr, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	firstSeen := map[packet.Flow4]bool{}
	var pk packet.Packet
	for i := range tr.Packets {
		if err := pk.Decode(tr.Packets[i].Data); err != nil {
			t.Fatal(err)
		}
		f, _ := pk.Flow()
		if !firstSeen[f] {
			if !pk.TCP.Flags.Has(packet.FlagSYN) {
				t.Fatalf("first packet of flow %v is not SYN", f)
			}
			firstSeen[f] = true
		} else if pk.TCP.Flags.Has(packet.FlagSYN) {
			t.Fatalf("non-first packet of flow %v is SYN", f)
		}
	}
}

func TestZipfSkew(t *testing.T) {
	p := DefaultProfile()
	p.Packets = 10000
	p.Flows = 1000
	p.FlowDist = DistZipf
	p.ZipfS = 1.5
	tr, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[packet.Flow4]int{}
	var pk packet.Packet
	for i := range tr.Packets {
		if err := pk.Decode(tr.Packets[i].Data); err != nil {
			t.Fatal(err)
		}
		f, _ := pk.Flow()
		counts[f]++
	}
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	// Under Zipf(1.5) the top flow should carry far more than the uniform
	// share (10 packets per flow).
	if max < 100 {
		t.Errorf("top flow carries %d packets; Zipf skew looks broken", max)
	}
	// Uniform control: top flow near the mean.
	p.FlowDist = DistUniform
	tru, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	countsU := map[packet.Flow4]int{}
	for i := range tru.Packets {
		if err := pk.Decode(tru.Packets[i].Data); err != nil {
			t.Fatal(err)
		}
		f, _ := pk.Flow()
		countsU[f]++
	}
	maxU := 0
	for _, c := range countsU {
		if c > maxU {
			maxU = c
		}
	}
	if maxU >= max {
		t.Errorf("uniform max %d ≥ zipf max %d", maxU, max)
	}
}

func TestPayloadJitter(t *testing.T) {
	p := DefaultProfile()
	p.Packets = 1000
	p.PayloadBytes = 300
	p.PayloadJitter = 100
	tr, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	var pk packet.Packet
	minL, maxL := 1<<30, 0
	for i := range tr.Packets {
		if err := pk.Decode(tr.Packets[i].Data); err != nil {
			t.Fatal(err)
		}
		if len(pk.Payload) < minL {
			minL = len(pk.Payload)
		}
		if len(pk.Payload) > maxL {
			maxL = len(pk.Payload)
		}
	}
	if minL < 200 || maxL > 400 {
		t.Errorf("payload range [%d,%d] outside 300±100", minL, maxL)
	}
	if maxL-minL < 50 {
		t.Errorf("jitter too narrow: [%d,%d]", minL, maxL)
	}
}

func TestPoissonArrivals(t *testing.T) {
	p := DefaultProfile()
	p.Packets = 5000
	p.Poisson = true
	tr, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	s := tr.Stats()
	if math.Abs(s.RatePPS-60000)/60000 > 0.1 {
		t.Errorf("poisson mean rate = %v, want ≈60000", s.RatePPS)
	}
	// Interarrivals must vary.
	d0 := tr.Packets[1].ArrivalNs - tr.Packets[0].ArrivalNs
	varies := false
	for i := 2; i < 100; i++ {
		if math.Abs((tr.Packets[i].ArrivalNs-tr.Packets[i-1].ArrivalNs)-d0) > 1 {
			varies = true
			break
		}
	}
	if !varies {
		t.Error("poisson arrivals are uniformly spaced")
	}
}

func TestGenerateValidation(t *testing.T) {
	bad := []Profile{
		{Packets: 0, Flows: 1, RatePPS: 1},
		{Packets: 1, Flows: 0, RatePPS: 1},
		{Packets: 1, Flows: 1, RatePPS: 0},
		{Packets: 1, Flows: 1, RatePPS: 1, TCPFraction: 1.5},
		{Packets: 1, Flows: 1, RatePPS: 1, FlowDist: DistZipf, ZipfS: 0.5},
	}
	for i, p := range bad {
		if _, err := Generate(p); err == nil {
			t.Errorf("case %d: want error", i)
		}
	}
}

func TestGenerateNegativePayload(t *testing.T) {
	// Regression: size=-300 used to reach make([]byte, 0, negative) and
	// panic with "makeslice: cap out of range"; now it's a plain error.
	p := DefaultProfile()
	p.PayloadBytes = -300
	if _, err := Generate(p); err == nil {
		t.Error("want error for negative payload size")
	}
	p = DefaultProfile()
	p.PayloadJitter = -8
	if _, err := Generate(p); err == nil {
		t.Error("want error for negative payload jitter")
	}
}

func TestPcapRoundTrip(t *testing.T) {
	p := DefaultProfile()
	p.Packets = 200
	tr, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WritePcap(&buf); err != nil {
		t.Fatal(err)
	}
	tr2, err := ReadPcap(&buf, "reread")
	if err != nil {
		t.Fatal(err)
	}
	if len(tr2.Packets) != len(tr.Packets) {
		t.Fatalf("packets = %d, want %d", len(tr2.Packets), len(tr.Packets))
	}
	for i := range tr.Packets {
		if !bytes.Equal(tr.Packets[i].Data, tr2.Packets[i].Data) {
			t.Fatalf("packet %d differs after pcap round trip", i)
		}
	}
	// Relative timestamps preserved to ns.
	for i := 1; i < len(tr.Packets); i++ {
		want := tr.Packets[i].ArrivalNs - tr.Packets[0].ArrivalNs
		if math.Abs(tr2.Packets[i].ArrivalNs-want) > 1 {
			t.Fatalf("packet %d arrival = %v, want %v", i, tr2.Packets[i].ArrivalNs, want)
		}
	}
}

func TestParseProfile(t *testing.T) {
	p, err := ParseProfile("packets=5000,rate=240000,flows=10000,tcp=0.5,size=1000,jitter=8,zipf=1.2,poisson=true,seed=42")
	if err != nil {
		t.Fatal(err)
	}
	if p.Packets != 5000 || p.RatePPS != 240000 || p.Flows != 10000 ||
		p.TCPFraction != 0.5 || p.PayloadBytes != 1000 || p.PayloadJitter != 8 ||
		p.FlowDist != DistZipf || p.ZipfS != 1.2 || !p.Poisson || p.Seed != 42 {
		t.Errorf("parsed = %+v", p)
	}
	if _, err := ParseProfile("bogus=1"); err == nil {
		t.Error("want error for unknown key")
	}
	if _, err := ParseProfile("packets"); err == nil {
		t.Error("want error for missing value")
	}
	if _, err := ParseProfile("packets=abc"); err == nil {
		t.Error("want error for bad int")
	}
	d, err := ParseProfile("")
	if err != nil || d.Packets != DefaultProfile().Packets {
		t.Errorf("empty spec should give default, got %+v, %v", d, err)
	}
	if _, err := ParseProfile("size=-300"); err == nil {
		t.Error("want error for negative size")
	}
	if _, err := ParseProfile("jitter=-8"); err == nil {
		t.Error("want error for negative jitter")
	}
}

func TestStatsSYNFraction(t *testing.T) {
	p := DefaultProfile()
	p.Packets = 1000
	p.Flows = 100
	p.TCPFraction = 1.0
	tr, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	s := tr.Stats()
	// Each of ~100 flows SYNs once in 1000 packets.
	if s.SYNFraction < 0.05 || s.SYNFraction > 0.15 {
		t.Errorf("SYN fraction = %v, want ≈0.1", s.SYNFraction)
	}
	if s.FlowHitFraction < 0.85 {
		t.Errorf("flow hit fraction = %v, want ≈0.9", s.FlowHitFraction)
	}
}

func TestStatsSkipsUndecodablePackets(t *testing.T) {
	p := DefaultProfile()
	p.Packets = 1000
	p.TCPFraction = 1.0
	tr, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	clean := tr.Stats()
	if clean.DecodeErrors != 0 || clean.Decoded != clean.Packets {
		t.Fatalf("clean trace reports decode errors: %+v", clean)
	}
	// Splice in frames the parser must reject: a truncated runt and an
	// IPv4 frame whose IP header is cut short.
	truncatedIP := append([]byte{
		0x02, 0, 0, 0, 0, 1, 0x02, 0, 0, 0, 0, 2, // eth dst/src
		0x08, 0x00, // EtherType IPv4
	}, 0x45, 0x00) // two bytes of a 20-byte IPv4 header
	// Build a fresh Trace rather than copying tr: a used Trace carries its
	// decoded-frame cache and must not be duplicated by value.
	corrupt := Trace{Name: tr.Name}
	corrupt.Packets = append([]TracePacket(nil), tr.Packets...)
	corrupt.Packets = append(corrupt.Packets,
		TracePacket{Data: []byte{0xde, 0xad}, ArrivalNs: tr.Packets[len(tr.Packets)-1].ArrivalNs + 1},
		TracePacket{Data: truncatedIP, ArrivalNs: tr.Packets[len(tr.Packets)-1].ArrivalNs + 2},
	)
	s := corrupt.Stats()
	if s.Packets != clean.Packets+2 {
		t.Fatalf("total packets = %d, want %d", s.Packets, clean.Packets+2)
	}
	if s.DecodeErrors != 2 || s.Decoded != clean.Decoded {
		t.Fatalf("decoded/errors = %d/%d, want %d/2", s.Decoded, s.DecodeErrors, clean.Decoded)
	}
	// Fractions and averages must be over decoded packets only — before the
	// fix the two bad frames deflated every denominator-of-Packets stat.
	if s.TCPFraction != clean.TCPFraction || s.SYNFraction != clean.SYNFraction ||
		s.AvgPayload != clean.AvgPayload || s.AvgWire != clean.AvgWire ||
		s.FlowHitFraction != clean.FlowHitFraction {
		t.Errorf("stats skewed by undecodable packets:\n  corrupt: %+v\n  clean:   %+v", s, clean)
	}
}

func TestEmptyTraceStats(t *testing.T) {
	var tr Trace
	s := tr.Stats()
	if s.Packets != 0 || s.RatePPS != 0 {
		t.Errorf("empty stats = %+v", s)
	}
}

// TestStatsOutOfOrderCapture: a capture whose timestamps go backwards spans
// its earliest to its latest arrival, not last minus first (which read
// negative here, with RatePPS 0).
func TestStatsOutOfOrderCapture(t *testing.T) {
	p := DefaultProfile()
	p.Packets = 5
	gen, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	tr := &Trace{Name: "reordered"}
	for i, ns := range []float64{3000, 1000, 5000, 0, 2000} {
		tr.Packets = append(tr.Packets, TracePacket{Data: gen.Packets[i].Data, ArrivalNs: ns})
	}
	s := tr.Stats()
	if s.DurationNs != 5000 {
		t.Errorf("duration = %v ns, want 5000 (max - min arrival)", s.DurationNs)
	}
	if math.Abs(s.RatePPS-800000) > 1e-3 {
		t.Errorf("rate = %v pps, want 800000 (4 gaps over 5 µs)", s.RatePPS)
	}
	// The sorted capture of the same arrivals reports the same span.
	sorted := &Trace{Name: "sorted"}
	for i, ns := range []float64{0, 1000, 2000, 3000, 5000} {
		sorted.Packets = append(sorted.Packets, TracePacket{Data: gen.Packets[i].Data, ArrivalNs: ns})
	}
	if got := sorted.Stats(); got.DurationNs != s.DurationNs || got.RatePPS != s.RatePPS {
		t.Errorf("sorted capture: duration %v rate %v, reordered: %v %v", got.DurationNs, got.RatePPS, s.DurationNs, s.RatePPS)
	}
}

// TestStatsComputedOnce pins the Stats memo: concurrent first calls agree,
// and a later call returns the first result even though (against the
// read-only contract) the packets were mutated in between.
func TestStatsComputedOnce(t *testing.T) {
	p := DefaultProfile()
	p.Packets = 300
	tr, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	got := make([]Stats, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g] = tr.Stats()
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		if got[g] != got[0] {
			t.Fatalf("goroutine %d: %+v, goroutine 0: %+v", g, got[g], got[0])
		}
	}
	tr.Packets = tr.Packets[:10]
	if s := tr.Stats(); s != got[0] {
		t.Errorf("second call recomputed: %+v, first %+v", s, got[0])
	}
}

// TestDecodedCache pins the decode-cache contract: Decoded parses each frame
// exactly once, returns the same shared slices on every call (including
// concurrent ones), and matches a fresh per-frame Decode bit for bit.
func TestDecodedCache(t *testing.T) {
	p := DefaultProfile()
	p.Packets = 500
	tr, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	tr.Packets = append(tr.Packets, TracePacket{Data: []byte{0xde, 0xad}})

	type view struct {
		decoded []packet.Packet
		errs    []bool
	}
	const goroutines = 8
	views := make([]view, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			d, e := tr.Decoded()
			views[g] = view{d, e}
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		if &views[g].decoded[0] != &views[0].decoded[0] || &views[g].errs[0] != &views[0].errs[0] {
			t.Fatalf("goroutine %d got a different cache instance", g)
		}
	}

	decoded, errs := tr.Decoded()
	if len(decoded) != len(tr.Packets) || len(errs) != len(tr.Packets) {
		t.Fatalf("cache sized %d/%d, want %d", len(decoded), len(errs), len(tr.Packets))
	}
	for i := range tr.Packets {
		var want packet.Packet
		wantErr := want.Decode(tr.Packets[i].Data) != nil
		if errs[i] != wantErr {
			t.Fatalf("packet %d: cached error flag %v, fresh decode error %v", i, errs[i], wantErr)
		}
		if !reflect.DeepEqual(decoded[i], want) {
			t.Fatalf("packet %d: cached decode differs from fresh decode", i)
		}
	}
	if !errs[len(errs)-1] {
		t.Error("runt frame not flagged as a decode error")
	}
}

func BenchmarkGenerate(b *testing.B) {
	p := DefaultProfile()
	p.Packets = 10000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Generate(p); err != nil {
			b.Fatal(err)
		}
	}
}

package packet

import (
	"bytes"
	"testing"
	"testing/quick"
)

// Encode appends the wire form of the header to b.
func (ip *IPv6) Encode(b []byte) []byte {
	b = append(b, 6<<4|ip.TrafficClass>>4,
		ip.TrafficClass<<4|byte(ip.FlowLabel>>16), byte(ip.FlowLabel>>8), byte(ip.FlowLabel))
	b = append(b, byte(ip.Length>>8), byte(ip.Length), byte(ip.NextHeader), ip.HopLimit)
	b = append(b, ip.Src[:]...)
	return append(b, ip.Dst[:]...)
}

// Encode appends the wire form of the header to b.
func (ic *ICMPv4) Encode(b []byte) []byte {
	b = append(b, ic.Type, ic.Code, byte(ic.Checksum>>8), byte(ic.Checksum))
	return append(b, byte(ic.Rest>>24), byte(ic.Rest>>16), byte(ic.Rest>>8), byte(ic.Rest))
}

func sampleEth() Ethernet {
	return Ethernet{
		Dst:  MAC{0x00, 0x11, 0x22, 0x33, 0x44, 0x55},
		Src:  MAC{0x66, 0x77, 0x88, 0x99, 0xaa, 0xbb},
		Type: EtherTypeIPv4,
	}
}

func sampleIPv4() IPv4 {
	return IPv4{
		TTL: 64, ID: 0x1234,
		Src: IPv4Addr{10, 0, 0, 1},
		Dst: IPv4Addr{192, 168, 1, 2},
	}
}

func TestEthernetRoundTrip(t *testing.T) {
	e := sampleEth()
	wire := e.Encode(nil)
	if len(wire) != EthernetLen {
		t.Fatalf("encoded length = %d, want %d", len(wire), EthernetLen)
	}
	var got Ethernet
	rest, err := got.Decode(append(wire, 0xde, 0xad))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got != e {
		t.Errorf("round trip mismatch: got %+v want %+v", got, e)
	}
	if !bytes.Equal(rest, []byte{0xde, 0xad}) {
		t.Errorf("rest = %x, want dead", rest)
	}
}

func TestEthernetTruncated(t *testing.T) {
	var e Ethernet
	if _, err := e.Decode(make([]byte, EthernetLen-1)); err == nil {
		t.Fatal("want error on truncated frame")
	}
}

func TestIPv4RoundTrip(t *testing.T) {
	ip := sampleIPv4()
	ip.Length = IPv4MinLen + 8
	ip.TOS = 0x10
	ip.Flags = 2 // DF
	wire := ip.Encode(nil)
	wire = append(wire, 1, 2, 3, 4, 5, 6, 7, 8)
	var got IPv4
	rest, err := got.Decode(wire)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Src != ip.Src || got.Dst != ip.Dst || got.TTL != ip.TTL ||
		got.TOS != ip.TOS || got.Flags != ip.Flags || got.ID != ip.ID {
		t.Errorf("fields mismatch: got %+v", got)
	}
	if len(rest) != 8 {
		t.Errorf("payload length = %d, want 8", len(rest))
	}
	// A freshly encoded header must checksum to zero when re-summed.
	if Checksum(wire[:IPv4MinLen]) != 0 {
		t.Error("header checksum does not verify")
	}
}

func TestIPv4Options(t *testing.T) {
	ip := sampleIPv4()
	ip.Options = []byte{0x94, 0x04, 0x00, 0x00} // router alert
	ip.Length = uint16(ip.HeaderLen())
	wire := ip.Encode(nil)
	var got IPv4
	if _, err := got.Decode(wire); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.IHL != 6 {
		t.Errorf("IHL = %d, want 6", got.IHL)
	}
	if !bytes.Equal(got.Options, ip.Options) {
		t.Errorf("options = %x, want %x", got.Options, ip.Options)
	}
}

func TestIPv4Malformed(t *testing.T) {
	ip := sampleIPv4()
	ip.Length = IPv4MinLen
	wire := ip.Encode(nil)
	wire[0] = 0x60 // version 6 in an IPv4 decode
	var got IPv4
	if _, err := got.Decode(wire); err == nil {
		t.Error("want error for wrong version")
	}
	wire[0] = 0x43 // IHL 3 < 5
	if _, err := got.Decode(wire); err == nil {
		t.Error("want error for short IHL")
	}
}

func TestIPv4LengthClamp(t *testing.T) {
	ip := sampleIPv4()
	ip.Length = IPv4MinLen + 4
	wire := ip.Encode(nil)
	wire = append(wire, 1, 2, 3, 4, 9, 9, 9) // 3 bytes of trailing padding
	var got IPv4
	rest, err := got.Decode(wire)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(rest) != 4 {
		t.Errorf("payload = %d bytes, want 4 (clamped to Length)", len(rest))
	}
}

func TestIPv6RoundTrip(t *testing.T) {
	ip := IPv6{
		TrafficClass: 0xa0, FlowLabel: 0x12345,
		Length: 4, NextHeader: ProtoUDP, HopLimit: 255,
	}
	ip.Src[15] = 1
	ip.Dst[15] = 2
	wire := ip.Encode(nil)
	wire = append(wire, 1, 2, 3, 4)
	var got IPv6
	rest, err := got.Decode(wire)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got != ip {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, ip)
	}
	if len(rest) != 4 {
		t.Errorf("payload = %d, want 4", len(rest))
	}
}

func TestTCPRoundTrip(t *testing.T) {
	tc := TCP{
		SrcPort: 443, DstPort: 51234,
		Seq: 0xdeadbeef, Ack: 0x01020304,
		Flags: FlagSYN | FlagACK, Window: 65535, Urgent: 7,
		Options: []byte{2, 4, 5, 0xb4}, // MSS
	}
	wire := tc.Encode(nil)
	wire = append(wire, 'h', 'i')
	var got TCP
	rest, err := got.Decode(wire)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.SrcPort != tc.SrcPort || got.DstPort != tc.DstPort ||
		got.Seq != tc.Seq || got.Ack != tc.Ack || got.Flags != tc.Flags ||
		got.Window != tc.Window || got.Urgent != tc.Urgent {
		t.Errorf("fields mismatch: got %+v", got)
	}
	if !bytes.Equal(got.Options, tc.Options) {
		t.Errorf("options = %x, want %x", got.Options, tc.Options)
	}
	if string(rest) != "hi" {
		t.Errorf("payload = %q, want hi", rest)
	}
}

func TestTCPFlags(t *testing.T) {
	f := FlagSYN | FlagACK
	if !f.Has(FlagSYN) || !f.Has(FlagACK) || f.Has(FlagFIN) {
		t.Error("Has misbehaves")
	}
	if f.String() != "SYN|ACK" {
		t.Errorf("String = %q", f.String())
	}
	if TCPFlags(0).String() != "0" {
		t.Errorf("zero flags String = %q", TCPFlags(0).String())
	}
}

func TestUDPRoundTrip(t *testing.T) {
	u := UDP{SrcPort: 53, DstPort: 33000, Length: UDPLen + 3}
	wire := u.Encode(nil)
	wire = append(wire, 'a', 'b', 'c')
	var got UDP
	rest, err := got.Decode(wire)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got != u {
		t.Errorf("round trip mismatch: got %+v want %+v", got, u)
	}
	if string(rest) != "abc" {
		t.Errorf("payload = %q", rest)
	}
}

func TestUDPBadLength(t *testing.T) {
	u := UDP{SrcPort: 1, DstPort: 2, Length: 3} // shorter than header
	wire := u.Encode(nil)
	var got UDP
	if _, err := got.Decode(wire); err == nil {
		t.Error("want error for Length < 8")
	}
}

func TestICMPRoundTrip(t *testing.T) {
	ic := ICMPv4{Type: 8, Code: 0, Rest: 0x00010002}
	wire := ic.Encode(nil)
	var got ICMPv4
	if _, err := got.Decode(wire); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got != ic {
		t.Errorf("round trip mismatch: got %+v want %+v", got, ic)
	}
}

func TestChecksumKnownVector(t *testing.T) {
	// Classic RFC 1071 example: checksum of 0001 f203 f4f5 f6f7 is 0x220d
	// (one's complement of 0xddf2).
	data := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if got := Checksum(data); got != 0x220d {
		t.Errorf("Checksum = %#04x, want 0x220d", got)
	}
}

func TestChecksumOddLength(t *testing.T) {
	even := Checksum([]byte{0xab, 0x00})
	odd := Checksum([]byte{0xab})
	if even != odd {
		t.Errorf("odd-length pad mismatch: %#04x vs %#04x", odd, even)
	}
}

func TestTCPv4BuilderChecksums(t *testing.T) {
	var b Builder
	frame := b.TCPv4(sampleEth(), sampleIPv4(), TCP{SrcPort: 1000, DstPort: 80, Flags: FlagSYN}, []byte("payload"))
	var p Packet
	if err := p.Decode(frame); err != nil {
		t.Fatalf("decode built frame: %v", err)
	}
	if !p.HasTCP {
		t.Fatal("no TCP layer")
	}
	// Verify L4 checksum: sum over pseudo-header + segment must be zero-valid.
	seg := frame[EthernetLen+IPv4MinLen:]
	segCopy := append([]byte(nil), seg...)
	segCopy[16], segCopy[17] = 0, 0
	if ChecksumL4(p.IP4.Src, p.IP4.Dst, ProtoTCP, segCopy) != p.TCP.Checksum {
		t.Error("TCP checksum does not verify")
	}
	if string(p.Payload) != "payload" {
		t.Errorf("payload = %q", p.Payload)
	}
}

func TestUDPv4BuilderChecksums(t *testing.T) {
	var b Builder
	frame := b.UDPv4(sampleEth(), sampleIPv4(), UDP{SrcPort: 5353, DstPort: 5353}, []byte{1, 2, 3})
	var p Packet
	if err := p.Decode(frame); err != nil {
		t.Fatalf("decode built frame: %v", err)
	}
	if !p.HasUDP {
		t.Fatal("no UDP layer")
	}
	seg := frame[EthernetLen+IPv4MinLen:]
	segCopy := append([]byte(nil), seg...)
	segCopy[6], segCopy[7] = 0, 0
	if ChecksumL4(p.IP4.Src, p.IP4.Dst, ProtoUDP, segCopy) != p.UDP.Checksum {
		t.Error("UDP checksum does not verify")
	}
}

func TestPacketFlow(t *testing.T) {
	var b Builder
	frame := b.TCPv4(sampleEth(), sampleIPv4(), TCP{SrcPort: 1000, DstPort: 80}, nil)
	var p Packet
	if err := p.Decode(frame); err != nil {
		t.Fatal(err)
	}
	f, ok := p.Flow()
	if !ok {
		t.Fatal("Flow not ok")
	}
	want := Flow4{Src: IPv4Addr{10, 0, 0, 1}, Dst: IPv4Addr{192, 168, 1, 2}, SrcPort: 1000, DstPort: 80, Proto: ProtoTCP}
	if f != want {
		t.Errorf("flow = %v, want %v", f, want)
	}
}

func TestHashDirectionSensitive(t *testing.T) {
	fl := Flow4{Src: IPv4Addr{1, 2, 3, 4}, Dst: IPv4Addr{5, 6, 7, 8}, SrcPort: 10, DstPort: 20, Proto: ProtoTCP}
	rev := Flow4{Src: fl.Dst, Dst: fl.Src, SrcPort: fl.DstPort, DstPort: fl.SrcPort, Proto: fl.Proto}
	if fl.Hash() == rev.Hash() {
		t.Error("directional Hash collides with reverse (astronomically unlikely unless broken)")
	}
}

func TestIPv4AddrUint32RoundTrip(t *testing.T) {
	f := func(v uint32) bool { return IPv4FromUint32(v).Uint32() == v }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStringers(t *testing.T) {
	if got := (MAC{0xde, 0xad, 0xbe, 0xef, 0, 1}).String(); got != "de:ad:be:ef:00:01" {
		t.Errorf("MAC.String = %q", got)
	}
	if got := (IPv4Addr{1, 2, 3, 4}).String(); got != "1.2.3.4" {
		t.Errorf("IPv4Addr.String = %q", got)
	}
	if got := ProtoTCP.String(); got != "TCP" {
		t.Errorf("IPProto.String = %q", got)
	}
	if got := IPProto(99).String(); got != "IPProto(99)" {
		t.Errorf("IPProto.String = %q", got)
	}
	var v6 IPv6Addr
	v6[15] = 1
	if got := v6.String(); got != "0:0:0:0:0:0:0:1" {
		t.Errorf("IPv6Addr.String = %q", got)
	}
}

func TestDecodeNonIP(t *testing.T) {
	e := sampleEth()
	e.Type = 0x0806 // ARP
	wire := e.Encode(nil)
	wire = append(wire, 1, 2, 3)
	var p Packet
	if err := p.Decode(wire); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if p.HasIP4 || p.HasIP6 {
		t.Error("unexpected IP layer")
	}
	if len(p.Payload) != 3 {
		t.Errorf("payload = %d bytes, want 3", len(p.Payload))
	}
}

func TestDecodeTruncatedL4(t *testing.T) {
	ip := sampleIPv4()
	ip.Protocol = ProtoTCP
	ip.Length = IPv4MinLen + 5 // claims a 5-byte TCP header
	e := sampleEth()
	wire := e.Encode(nil)
	wire = ip.Encode(wire)
	wire = append(wire, 1, 2, 3, 4, 5)
	var p Packet
	if err := p.Decode(wire); err == nil {
		t.Error("want error for truncated TCP")
	}
	if !p.HasIP4 {
		t.Error("IPv4 layer should still have decoded")
	}
}

func BenchmarkDecodeTCPv4(b *testing.B) {
	var bld Builder
	frame := append([]byte(nil), bld.TCPv4(sampleEth(), sampleIPv4(), TCP{SrcPort: 1, DstPort: 2}, make([]byte, 512))...)
	var p Packet
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := p.Decode(frame); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkChecksum1500(b *testing.B) {
	data := make([]byte, 1500)
	for i := range data {
		data[i] = byte(i)
	}
	b.SetBytes(1500)
	for i := 0; i < b.N; i++ {
		Checksum(data)
	}
}

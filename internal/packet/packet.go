// Package packet implements encoding and decoding of the network packet
// formats Clara's workloads are built from: Ethernet, IPv4, IPv6, TCP, UDP
// and ICMPv4. The design follows the layer/flow conventions popularized by
// gopacket — a decoded packet is a stack of typed layers, and transport or
// network layers can be summarized into hashable Flow values — but is
// self-contained and allocation-conscious so traces with millions of packets
// stay cheap to generate and replay.
package packet

import (
	"errors"
	"fmt"
)

// EtherType identifies the payload protocol of an Ethernet frame.
type EtherType uint16

// Supported EtherTypes.
const (
	EtherTypeIPv4 EtherType = 0x0800
	EtherTypeIPv6 EtherType = 0x86DD
)

// IPProto identifies the payload protocol of an IP packet.
type IPProto uint8

// Supported IP protocol numbers.
const (
	ProtoICMP IPProto = 1
	ProtoTCP  IPProto = 6
	ProtoUDP  IPProto = 17
)

func (p IPProto) String() string {
	switch p {
	case ProtoICMP:
		return "ICMP"
	case ProtoTCP:
		return "TCP"
	case ProtoUDP:
		return "UDP"
	default:
		return fmt.Sprintf("IPProto(%d)", uint8(p))
	}
}

// Errors returned by decoders.
var (
	ErrTruncated = errors.New("packet: truncated data")
	ErrBadHeader = errors.New("packet: malformed header")
)

// MAC is a 48-bit Ethernet hardware address.
type MAC [6]byte

func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// IPv4Addr is an IPv4 address in network byte order.
type IPv4Addr [4]byte

func (a IPv4Addr) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", a[0], a[1], a[2], a[3])
}

// Uint32 returns the address as a big-endian integer, convenient for LPM
// tries and hash keys.
func (a IPv4Addr) Uint32() uint32 {
	return uint32(a[0])<<24 | uint32(a[1])<<16 | uint32(a[2])<<8 | uint32(a[3])
}

// IPv4FromUint32 converts a big-endian integer back to an address.
func IPv4FromUint32(v uint32) IPv4Addr {
	return IPv4Addr{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)}
}

// IPv6Addr is a 128-bit IPv6 address.
type IPv6Addr [16]byte

func (a IPv6Addr) String() string {
	s := ""
	for i := 0; i < 16; i += 2 {
		if i > 0 {
			s += ":"
		}
		s += fmt.Sprintf("%x", uint16(a[i])<<8|uint16(a[i+1]))
	}
	return s
}

// TCPFlags is the 8-bit flag field of a TCP header.
type TCPFlags uint8

// TCP flag bits.
const (
	FlagFIN TCPFlags = 1 << iota
	FlagSYN
	FlagRST
	FlagPSH
	FlagACK
	FlagURG
	FlagECE
	FlagCWR
)

// Has reports whether every flag in mask is set.
func (f TCPFlags) Has(mask TCPFlags) bool { return f&mask == mask }

func (f TCPFlags) String() string {
	names := []struct {
		bit  TCPFlags
		name string
	}{
		{FlagFIN, "FIN"}, {FlagSYN, "SYN"}, {FlagRST, "RST"}, {FlagPSH, "PSH"},
		{FlagACK, "ACK"}, {FlagURG, "URG"}, {FlagECE, "ECE"}, {FlagCWR, "CWR"},
	}
	out := ""
	for _, n := range names {
		if f&n.bit != 0 {
			if out != "" {
				out += "|"
			}
			out += n.name
		}
	}
	if out == "" {
		return "0"
	}
	return out
}

// Ethernet is a decoded Ethernet II header.
type Ethernet struct {
	Dst  MAC
	Src  MAC
	Type EtherType
}

// EthernetLen is the wire size of an Ethernet II header.
const EthernetLen = 14

// Decode parses an Ethernet header from data and returns the remaining bytes.
func (e *Ethernet) Decode(data []byte) ([]byte, error) {
	if len(data) < EthernetLen {
		return nil, ErrTruncated
	}
	copy(e.Dst[:], data[0:6])
	copy(e.Src[:], data[6:12])
	e.Type = EtherType(uint16(data[12])<<8 | uint16(data[13]))
	return data[EthernetLen:], nil
}

// Encode appends the wire form of the header to b.
func (e *Ethernet) Encode(b []byte) []byte {
	b = append(b, e.Dst[:]...)
	b = append(b, e.Src[:]...)
	return append(b, byte(e.Type>>8), byte(e.Type))
}

// IPv4 is a decoded IPv4 header. Options are preserved verbatim.
type IPv4 struct {
	Version  uint8
	IHL      uint8 // header length in 32-bit words
	TOS      uint8
	Length   uint16 // total length including header
	ID       uint16
	Flags    uint8 // 3 bits
	FragOff  uint16
	TTL      uint8
	Protocol IPProto
	Checksum uint16
	Src      IPv4Addr
	Dst      IPv4Addr
	Options  []byte
}

// IPv4MinLen is the wire size of an option-less IPv4 header.
const IPv4MinLen = 20

// Decode parses an IPv4 header and returns the remaining bytes (the L4
// segment, truncated to the header's Length field when the buffer is longer).
func (ip *IPv4) Decode(data []byte) ([]byte, error) {
	if len(data) < IPv4MinLen {
		return nil, ErrTruncated
	}
	ip.Version = data[0] >> 4
	ip.IHL = data[0] & 0x0f
	if ip.Version != 4 || ip.IHL < 5 {
		return nil, ErrBadHeader
	}
	hlen := int(ip.IHL) * 4
	if len(data) < hlen {
		return nil, ErrTruncated
	}
	ip.TOS = data[1]
	ip.Length = be16(data[2:])
	ip.ID = be16(data[4:])
	ip.Flags = data[6] >> 5
	ip.FragOff = be16(data[6:]) & 0x1fff
	ip.TTL = data[8]
	ip.Protocol = IPProto(data[9])
	ip.Checksum = be16(data[10:])
	copy(ip.Src[:], data[12:16])
	copy(ip.Dst[:], data[16:20])
	if hlen > IPv4MinLen {
		ip.Options = append(ip.Options[:0], data[IPv4MinLen:hlen]...)
	} else {
		ip.Options = nil
	}
	rest := data[hlen:]
	if int(ip.Length) >= hlen && int(ip.Length)-hlen < len(rest) {
		rest = rest[:int(ip.Length)-hlen]
	}
	return rest, nil
}

// HeaderLen returns the encoded header length in bytes.
func (ip *IPv4) HeaderLen() int { return IPv4MinLen + len(ip.Options) }

// Encode appends the wire form of the header to b, computing the checksum.
// The caller must have set Length to the total packet length.
func (ip *IPv4) Encode(b []byte) []byte {
	ihl := uint8((IPv4MinLen + len(ip.Options)) / 4)
	start := len(b)
	b = append(b, 4<<4|ihl, ip.TOS, byte(ip.Length>>8), byte(ip.Length))
	b = append(b, byte(ip.ID>>8), byte(ip.ID))
	ff := uint16(ip.Flags)<<13 | ip.FragOff
	b = append(b, byte(ff>>8), byte(ff))
	b = append(b, ip.TTL, byte(ip.Protocol), 0, 0) // checksum placeholder
	b = append(b, ip.Src[:]...)
	b = append(b, ip.Dst[:]...)
	b = append(b, ip.Options...)
	ck := Checksum(b[start:])
	b[start+10] = byte(ck >> 8)
	b[start+11] = byte(ck)
	return b
}

// IPv6 is a decoded fixed IPv6 header (extension headers are treated as
// payload; Clara's NFs do not parse them).
type IPv6 struct {
	TrafficClass uint8
	FlowLabel    uint32
	Length       uint16 // payload length
	NextHeader   IPProto
	HopLimit     uint8
	Src          IPv6Addr
	Dst          IPv6Addr
}

// IPv6Len is the wire size of the fixed IPv6 header.
const IPv6Len = 40

// Decode parses an IPv6 fixed header and returns the remaining bytes.
func (ip *IPv6) Decode(data []byte) ([]byte, error) {
	if len(data) < IPv6Len {
		return nil, ErrTruncated
	}
	if data[0]>>4 != 6 {
		return nil, ErrBadHeader
	}
	ip.TrafficClass = data[0]<<4 | data[1]>>4
	ip.FlowLabel = uint32(data[1]&0x0f)<<16 | uint32(data[2])<<8 | uint32(data[3])
	ip.Length = be16(data[4:])
	ip.NextHeader = IPProto(data[6])
	ip.HopLimit = data[7]
	copy(ip.Src[:], data[8:24])
	copy(ip.Dst[:], data[24:40])
	rest := data[IPv6Len:]
	if int(ip.Length) < len(rest) {
		rest = rest[:ip.Length]
	}
	return rest, nil
}

// Encode appends the wire form of the header to b.
func (ip *IPv6) Encode(b []byte) []byte {
	b = append(b, 6<<4|ip.TrafficClass>>4,
		ip.TrafficClass<<4|byte(ip.FlowLabel>>16), byte(ip.FlowLabel>>8), byte(ip.FlowLabel))
	b = append(b, byte(ip.Length>>8), byte(ip.Length), byte(ip.NextHeader), ip.HopLimit)
	b = append(b, ip.Src[:]...)
	return append(b, ip.Dst[:]...)
}

// TCP is a decoded TCP header. Options are preserved verbatim.
type TCP struct {
	SrcPort  uint16
	DstPort  uint16
	Seq      uint32
	Ack      uint32
	DataOff  uint8 // header length in 32-bit words
	Flags    TCPFlags
	Window   uint16
	Checksum uint16
	Urgent   uint16
	Options  []byte
}

// TCPMinLen is the wire size of an option-less TCP header.
const TCPMinLen = 20

// Decode parses a TCP header and returns the payload bytes.
func (t *TCP) Decode(data []byte) ([]byte, error) {
	if len(data) < TCPMinLen {
		return nil, ErrTruncated
	}
	t.SrcPort = be16(data)
	t.DstPort = be16(data[2:])
	t.Seq = be32(data[4:])
	t.Ack = be32(data[8:])
	t.DataOff = data[12] >> 4
	if t.DataOff < 5 {
		return nil, ErrBadHeader
	}
	hlen := int(t.DataOff) * 4
	if len(data) < hlen {
		return nil, ErrTruncated
	}
	t.Flags = TCPFlags(data[13])
	t.Window = be16(data[14:])
	t.Checksum = be16(data[16:])
	t.Urgent = be16(data[18:])
	if hlen > TCPMinLen {
		t.Options = append(t.Options[:0], data[TCPMinLen:hlen]...)
	} else {
		t.Options = nil
	}
	return data[hlen:], nil
}

// HeaderLen returns the encoded header length in bytes.
func (t *TCP) HeaderLen() int { return TCPMinLen + len(t.Options) }

// Encode appends the wire form of the header to b. The checksum field is
// written as stored; use ChecksumTCP to compute it over the pseudo-header.
func (t *TCP) Encode(b []byte) []byte {
	off := uint8((TCPMinLen + len(t.Options)) / 4)
	b = append(b, byte(t.SrcPort>>8), byte(t.SrcPort), byte(t.DstPort>>8), byte(t.DstPort))
	b = append(b, byte(t.Seq>>24), byte(t.Seq>>16), byte(t.Seq>>8), byte(t.Seq))
	b = append(b, byte(t.Ack>>24), byte(t.Ack>>16), byte(t.Ack>>8), byte(t.Ack))
	b = append(b, off<<4, byte(t.Flags))
	b = append(b, byte(t.Window>>8), byte(t.Window))
	b = append(b, byte(t.Checksum>>8), byte(t.Checksum))
	b = append(b, byte(t.Urgent>>8), byte(t.Urgent))
	return append(b, t.Options...)
}

// UDP is a decoded UDP header.
type UDP struct {
	SrcPort  uint16
	DstPort  uint16
	Length   uint16
	Checksum uint16
}

// UDPLen is the wire size of a UDP header.
const UDPLen = 8

// Decode parses a UDP header and returns the payload bytes.
func (u *UDP) Decode(data []byte) ([]byte, error) {
	if len(data) < UDPLen {
		return nil, ErrTruncated
	}
	u.SrcPort = be16(data)
	u.DstPort = be16(data[2:])
	u.Length = be16(data[4:])
	u.Checksum = be16(data[6:])
	if u.Length < UDPLen {
		return nil, ErrBadHeader
	}
	rest := data[UDPLen:]
	if int(u.Length)-UDPLen < len(rest) {
		rest = rest[:int(u.Length)-UDPLen]
	}
	return rest, nil
}

// Encode appends the wire form of the header to b.
func (u *UDP) Encode(b []byte) []byte {
	b = append(b, byte(u.SrcPort>>8), byte(u.SrcPort), byte(u.DstPort>>8), byte(u.DstPort))
	b = append(b, byte(u.Length>>8), byte(u.Length))
	return append(b, byte(u.Checksum>>8), byte(u.Checksum))
}

// ICMPv4 is a decoded ICMPv4 header.
type ICMPv4 struct {
	Type     uint8
	Code     uint8
	Checksum uint16
	Rest     uint32 // meaning depends on Type/Code
}

// ICMPv4Len is the wire size of an ICMPv4 header.
const ICMPv4Len = 8

// Decode parses an ICMPv4 header and returns the payload bytes.
func (ic *ICMPv4) Decode(data []byte) ([]byte, error) {
	if len(data) < ICMPv4Len {
		return nil, ErrTruncated
	}
	ic.Type = data[0]
	ic.Code = data[1]
	ic.Checksum = be16(data[2:])
	ic.Rest = be32(data[4:])
	return data[ICMPv4Len:], nil
}

// Encode appends the wire form of the header to b.
func (ic *ICMPv4) Encode(b []byte) []byte {
	b = append(b, ic.Type, ic.Code, byte(ic.Checksum>>8), byte(ic.Checksum))
	return append(b, byte(ic.Rest>>24), byte(ic.Rest>>16), byte(ic.Rest>>8), byte(ic.Rest))
}

func be16(b []byte) uint16 { return uint16(b[0])<<8 | uint16(b[1]) }
func be32(b []byte) uint32 {
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}

package packet

import "fmt"

// Packet is a fully decoded view over one frame's bytes. Layer pointers are
// nil when the corresponding layer is absent. The Data slice always holds the
// raw frame; Payload aliases into it.
type Packet struct {
	Data    []byte
	Eth     Ethernet
	HasEth  bool
	IP4     IPv4
	HasIP4  bool
	IP6     IPv6
	HasIP6  bool
	TCP     TCP
	HasTCP  bool
	UDP     UDP
	HasUDP  bool
	ICMP    ICMPv4
	HasICMP bool
	Payload []byte
}

// Decode parses data starting at the Ethernet layer, populating p. Layers
// beyond the first malformed one are left unset; the error reports where
// decoding stopped. A nil error means every recognized layer parsed.
func (p *Packet) Decode(data []byte) error {
	*p = Packet{Data: data}
	rest, err := p.Eth.Decode(data)
	if err != nil {
		return fmt.Errorf("ethernet: %w", err)
	}
	p.HasEth = true
	switch p.Eth.Type {
	case EtherTypeIPv4:
		rest, err = p.IP4.Decode(rest)
		if err != nil {
			return fmt.Errorf("ipv4: %w", err)
		}
		p.HasIP4 = true
		return p.decodeL4(p.IP4.Protocol, rest)
	case EtherTypeIPv6:
		rest, err = p.IP6.Decode(rest)
		if err != nil {
			return fmt.Errorf("ipv6: %w", err)
		}
		p.HasIP6 = true
		return p.decodeL4(p.IP6.NextHeader, rest)
	default:
		p.Payload = rest
		return nil
	}
}

func (p *Packet) decodeL4(proto IPProto, rest []byte) error {
	var err error
	switch proto {
	case ProtoTCP:
		p.Payload, err = p.TCP.Decode(rest)
		if err != nil {
			return fmt.Errorf("tcp: %w", err)
		}
		p.HasTCP = true
	case ProtoUDP:
		p.Payload, err = p.UDP.Decode(rest)
		if err != nil {
			return fmt.Errorf("udp: %w", err)
		}
		p.HasUDP = true
	case ProtoICMP:
		p.Payload, err = p.ICMP.Decode(rest)
		if err != nil {
			return fmt.Errorf("icmp: %w", err)
		}
		p.HasICMP = true
	default:
		p.Payload = rest
	}
	return nil
}

// Flow returns the IPv4 5-tuple of the packet. ok is false for non-IPv4
// packets; ICMP and unknown transports report zero ports.
func (p *Packet) Flow() (f Flow4, ok bool) {
	if !p.HasIP4 {
		return Flow4{}, false
	}
	f.Src = p.IP4.Src
	f.Dst = p.IP4.Dst
	f.Proto = p.IP4.Protocol
	switch {
	case p.HasTCP:
		f.SrcPort, f.DstPort = p.TCP.SrcPort, p.TCP.DstPort
	case p.HasUDP:
		f.SrcPort, f.DstPort = p.UDP.SrcPort, p.UDP.DstPort
	}
	return f, true
}

// Builder assembles frames layer by layer. It reuses its internal buffer
// across Reset calls so trace generation does not allocate per packet.
type Builder struct {
	buf []byte
}

// Reset clears the builder for a new frame.
func (b *Builder) Reset() { b.buf = b.buf[:0] }

// Bytes returns the assembled frame. The slice is invalidated by the next
// Reset.
func (b *Builder) Bytes() []byte { return b.buf }

// TCPv4 assembles an Ethernet+IPv4+TCP frame with the given payload,
// computing both the IPv4 header checksum and the TCP checksum.
func (b *Builder) TCPv4(eth Ethernet, ip IPv4, tcp TCP, payload []byte) []byte {
	b.Reset()
	ip.Protocol = ProtoTCP
	ip.Length = uint16(ip.HeaderLen() + tcp.HeaderLen() + len(payload))
	eth.Type = EtherTypeIPv4
	b.buf = eth.Encode(b.buf)
	b.buf = ip.Encode(b.buf)
	l4start := len(b.buf)
	tcp.Checksum = 0
	b.buf = tcp.Encode(b.buf)
	b.buf = append(b.buf, payload...)
	ck := ChecksumL4(ip.Src, ip.Dst, ProtoTCP, b.buf[l4start:])
	b.buf[l4start+16] = byte(ck >> 8)
	b.buf[l4start+17] = byte(ck)
	return b.buf
}

// UDPv4 assembles an Ethernet+IPv4+UDP frame with the given payload,
// computing both checksums.
func (b *Builder) UDPv4(eth Ethernet, ip IPv4, udp UDP, payload []byte) []byte {
	b.Reset()
	ip.Protocol = ProtoUDP
	udp.Length = uint16(UDPLen + len(payload))
	ip.Length = uint16(ip.HeaderLen() + int(udp.Length))
	eth.Type = EtherTypeIPv4
	b.buf = eth.Encode(b.buf)
	b.buf = ip.Encode(b.buf)
	l4start := len(b.buf)
	udp.Checksum = 0
	b.buf = udp.Encode(b.buf)
	b.buf = append(b.buf, payload...)
	ck := ChecksumL4(ip.Src, ip.Dst, ProtoUDP, b.buf[l4start:])
	b.buf[l4start+6] = byte(ck >> 8)
	b.buf[l4start+7] = byte(ck)
	return b.buf
}

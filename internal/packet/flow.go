package packet

import "fmt"

// Flow4 is a hashable IPv4 5-tuple. It is the key type used by flow tables,
// NAT translation tables, heavy-hitter sketches and the simulator's flow
// cache. Being a fixed-size value type it can be used directly as a map key
// with no allocation, the property gopacket's Endpoint/Flow design optimizes
// for.
type Flow4 struct {
	Src     IPv4Addr
	Dst     IPv4Addr
	SrcPort uint16
	DstPort uint16
	Proto   IPProto
}

func (f Flow4) String() string {
	return fmt.Sprintf("%s %s:%d -> %s:%d", f.Proto, f.Src, f.SrcPort, f.Dst, f.DstPort)
}

// Hash returns a direction-sensitive 64-bit hash of the flow.
func (f Flow4) Hash() uint64 {
	h := uint64(f.Src.Uint32())
	h = h*0x100000001b3 + uint64(f.Dst.Uint32())
	h = h*0x100000001b3 + uint64(f.SrcPort)<<16 + uint64(f.DstPort)
	h = h*0x100000001b3 + uint64(f.Proto)
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

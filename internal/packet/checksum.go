package packet

// Checksum computes the 16-bit one's-complement Internet checksum (RFC 1071)
// over data. An odd trailing byte is padded with zero on the right, matching
// hardware checksum units.
func Checksum(data []byte) uint16 {
	var sum uint32
	n := len(data)
	for i := 0; i+1 < n; i += 2 {
		sum += uint32(data[i])<<8 | uint32(data[i+1])
	}
	if n%2 == 1 {
		sum += uint32(data[n-1]) << 8
	}
	for sum>>16 != 0 {
		sum = (sum & 0xffff) + sum>>16
	}
	return ^uint16(sum)
}

// pseudoHeaderSum folds the IPv4 pseudo-header fields used by TCP and UDP
// checksums into a partial sum.
func pseudoHeaderSum(src, dst IPv4Addr, proto IPProto, l4len int) uint32 {
	var sum uint32
	sum += uint32(src[0])<<8 | uint32(src[1])
	sum += uint32(src[2])<<8 | uint32(src[3])
	sum += uint32(dst[0])<<8 | uint32(dst[1])
	sum += uint32(dst[2])<<8 | uint32(dst[3])
	sum += uint32(proto)
	sum += uint32(l4len)
	return sum
}

// ChecksumL4 computes the TCP or UDP checksum over the IPv4 pseudo-header
// plus segment. The checksum field inside segment must be zeroed by the
// caller beforehand.
func ChecksumL4(src, dst IPv4Addr, proto IPProto, segment []byte) uint16 {
	sum := pseudoHeaderSum(src, dst, proto, len(segment))
	n := len(segment)
	for i := 0; i+1 < n; i += 2 {
		sum += uint32(segment[i])<<8 | uint32(segment[i+1])
	}
	if n%2 == 1 {
		sum += uint32(segment[n-1]) << 8
	}
	for sum>>16 != 0 {
		sum = (sum & 0xffff) + sum>>16
	}
	ck := ^uint16(sum)
	// Per RFC 768, a computed UDP checksum of zero is transmitted as all ones.
	if ck == 0 && proto == ProtoUDP {
		ck = 0xffff
	}
	return ck
}

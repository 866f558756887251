// Package pcap reads and writes the classic libpcap capture file format
// (https://wiki.wireshark.org/Development/LibpcapFileFormat). Clara accepts
// pcap traces as workload profiles (§3.5 of the paper) and its workload
// generator can persist synthetic traces in the same format, so recorded and
// synthetic workloads are interchangeable.
package pcap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"
)

// Magic numbers for microsecond- and nanosecond-resolution captures.
const (
	MagicMicroseconds = 0xa1b2c3d4
	MagicNanoseconds  = 0xa1b23c4d
)

// LinkType identifies the layer-2 framing of captured packets.
type LinkType uint32

// LinkTypeEthernet is the only link type Clara traces use.
const LinkTypeEthernet LinkType = 1

// Errors returned by the reader.
var (
	ErrBadMagic      = errors.New("pcap: bad magic number")
	ErrTruncated     = errors.New("pcap: truncated file")
	ErrSnapLen       = errors.New("pcap: record exceeds snap length")
	ErrRecordTooLong = errors.New("pcap: record length exceeds hard cap")
)

// MaxRecordBytes is the hard upper bound on one record's captured length,
// checked before any allocation and regardless of the file's SnapLen (a
// hostile global header can claim SnapLen 0 or 4 GB). Real captures top out
// at jumbo-frame sizes; the cap exists because incl_len is
// attacker-controlled — a crafted header claiming a 4 GB record must produce
// an error, not an allocation.
const MaxRecordBytes = 1 << 18 // 256 KiB

// Header is the pcap global file header.
type Header struct {
	VersionMajor uint16
	VersionMinor uint16
	SnapLen      uint32
	LinkType     LinkType
	Nanosecond   bool // timestamp resolution
}

// Record is one captured packet.
type Record struct {
	Timestamp time.Time
	OrigLen   uint32 // length on the wire
	Data      []byte // captured bytes (≤ OrigLen when truncated by SnapLen)
}

// Reader decodes a pcap stream. Records are yielded in file order.
type Reader struct {
	r       io.Reader
	hdr     Header
	order   binary.ByteOrder
	scratch [16]byte
}

// NewReader parses the global header and returns a Reader. Both byte orders
// and both timestamp resolutions are accepted.
func NewReader(r io.Reader) (*Reader, error) {
	var magic [4]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return nil, fmt.Errorf("pcap: reading magic: %w", err)
	}
	rd := &Reader{r: r}
	le := binary.LittleEndian.Uint32(magic[:])
	beu := binary.BigEndian.Uint32(magic[:])
	switch {
	case le == MagicMicroseconds:
		rd.order = binary.LittleEndian
	case le == MagicNanoseconds:
		rd.order = binary.LittleEndian
		rd.hdr.Nanosecond = true
	case beu == MagicMicroseconds:
		rd.order = binary.BigEndian
	case beu == MagicNanoseconds:
		rd.order = binary.BigEndian
		rd.hdr.Nanosecond = true
	default:
		return nil, ErrBadMagic
	}
	var rest [20]byte
	if _, err := io.ReadFull(r, rest[:]); err != nil {
		return nil, fmt.Errorf("pcap: reading header: %w", err)
	}
	rd.hdr.VersionMajor = rd.order.Uint16(rest[0:])
	rd.hdr.VersionMinor = rd.order.Uint16(rest[2:])
	// rest[4:12] is thiszone/sigfigs, always zero in practice.
	rd.hdr.SnapLen = rd.order.Uint32(rest[12:])
	rd.hdr.LinkType = LinkType(rd.order.Uint32(rest[16:]))
	return rd, nil
}

// Next returns the next record, or io.EOF at a clean end of file. The
// record's Data is freshly allocated and safe to retain.
func (rd *Reader) Next() (Record, error) {
	if _, err := io.ReadFull(rd.r, rd.scratch[:]); err != nil {
		if err == io.EOF {
			return Record{}, io.EOF
		}
		return Record{}, ErrTruncated
	}
	sec := rd.order.Uint32(rd.scratch[0:])
	frac := rd.order.Uint32(rd.scratch[4:])
	incl := rd.order.Uint32(rd.scratch[8:])
	orig := rd.order.Uint32(rd.scratch[12:])
	// Validate before allocating: incl is attacker-controlled, and a zero
	// SnapLen (seen in the wild from buggy writers) must not disable the
	// length check entirely.
	if incl > MaxRecordBytes {
		return Record{}, fmt.Errorf("%w: incl_len %d > %d", ErrRecordTooLong, incl, MaxRecordBytes)
	}
	if rd.hdr.SnapLen != 0 && incl > rd.hdr.SnapLen {
		return Record{}, ErrSnapLen
	}
	data := make([]byte, incl)
	if _, err := io.ReadFull(rd.r, data); err != nil {
		return Record{}, ErrTruncated
	}
	var ts time.Time
	if rd.hdr.Nanosecond {
		ts = time.Unix(int64(sec), int64(frac))
	} else {
		ts = time.Unix(int64(sec), int64(frac)*1000)
	}
	return Record{Timestamp: ts, OrigLen: orig, Data: data}, nil
}

// Writer encodes a pcap stream in little-endian, nanosecond resolution.
type Writer struct {
	w       io.Writer
	snapLen uint32
	scratch [24]byte
}

// NewWriter writes the global header and returns a Writer. snapLen of 0
// defaults to 65535.
func NewWriter(w io.Writer, linkType LinkType, snapLen uint32) (*Writer, error) {
	if snapLen == 0 {
		snapLen = 65535
	}
	wr := &Writer{w: w, snapLen: snapLen}
	b := wr.scratch[:]
	binary.LittleEndian.PutUint32(b[0:], MagicNanoseconds)
	binary.LittleEndian.PutUint16(b[4:], 2)
	binary.LittleEndian.PutUint16(b[6:], 4)
	binary.LittleEndian.PutUint32(b[8:], 0)  // thiszone
	binary.LittleEndian.PutUint32(b[12:], 0) // sigfigs
	binary.LittleEndian.PutUint32(b[16:], snapLen)
	binary.LittleEndian.PutUint32(b[20:], uint32(linkType))
	if _, err := w.Write(b); err != nil {
		return nil, fmt.Errorf("pcap: writing header: %w", err)
	}
	return wr, nil
}

// WritePacket appends one record. Packets longer than the snap length are
// truncated, with OrigLen preserved.
func (wr *Writer) WritePacket(ts time.Time, data []byte) error {
	incl := uint32(len(data))
	orig := incl
	if incl > wr.snapLen {
		incl = wr.snapLen
	}
	b := wr.scratch[:16]
	binary.LittleEndian.PutUint32(b[0:], uint32(ts.Unix()))
	binary.LittleEndian.PutUint32(b[4:], uint32(ts.Nanosecond()))
	binary.LittleEndian.PutUint32(b[8:], incl)
	binary.LittleEndian.PutUint32(b[12:], orig)
	if _, err := wr.w.Write(b); err != nil {
		return fmt.Errorf("pcap: writing record header: %w", err)
	}
	if _, err := wr.w.Write(data[:incl]); err != nil {
		return fmt.Errorf("pcap: writing record data: %w", err)
	}
	return nil
}

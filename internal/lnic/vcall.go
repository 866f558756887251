package lnic

import (
	"math"

	"clara/internal/cir"
)

// LineSize is the region's fetch granularity in bytes: LineBytes, or 64
// when the profile leaves it unset.
func (m *MemRegion) LineSize() int {
	if m.LineBytes <= 0 {
		return 64
	}
	return m.LineBytes
}

// EntryBytes is one entry of a state table: key plus value, or 8 bytes when
// the object declares neither.
func EntryBytes(obj cir.StateObj) int {
	if n := obj.KeySize + obj.ValueSize; n > 0 {
		return n
	}
	return 8
}

// SketchRows is a count-min sketch's row count: an add or a read hashes the
// key once and touches one counter per row.
const SketchRows = 4

// DPIByteCycles is the compute a DPI scan charges per payload byte on top
// of reading it: the automaton step, at two cycles whatever the ALU price.
const DPIByteCycles = 2

// ServiceCycles is the unit's service time for a request of bytes bytes.
func (u *ComputeUnit) ServiceCycles(bytes float64) float64 {
	return u.FixedCycles + u.PerByteCycles*bytes
}

// aluCycles prices one ALU operation on u, at zero when there is no unit.
func (u *ComputeUnit) aluCycles() float64 {
	if u == nil {
		return 0
	}
	return u.ClassCycles[cir.ClassALU]
}

// PayloadLines counts the packet-memory lines that n payload bytes starting
// at packet offset off span.
func (l *LNIC) PayloadLines(off, n float64) float64 {
	if n <= 0 {
		return 0
	}
	line := float64(l.Mems[l.PktMem].LineSize())
	return math.Floor((off+n-1)/line) - math.Floor(off/line) + 1
}

// VCallIn is what a vcall's price depends on besides the NIC and the
// pricing unit.
type VCallIn struct {
	// Bytes is the byte argument: the crypto length, the L4 segment a
	// checksum covers, or the payload bytes a DPI scan reads. Offset is
	// where the payload starts in packet memory (the header length).
	Bytes, Offset float64
	// Region is the addressed state's memory region; Entries and
	// EntryBytes size the table an LPM lookup scans.
	Region, Entries, EntryBytes int
	// Warm selects the cheap case of a call whose price depends on what the
	// packet did before it: get_hdr on a header already parsed,
	// payload_byte on the line the previous payload read fetched (or past
	// the payload's end), map_incr on an entry the packet latched, and
	// map_lookup or lpm_lookup on a seen flow, whose entry is present and,
	// behind the flow cache, cached there.
	Warm bool
	// ParseOnEngine: the ingress parser extracted the headers, so get_hdr
	// only reads metadata.
	ParseOnEngine bool
	// OnAccel sends checksum_pkt and crypto to their accelerator and fronts
	// a table's lookups with the flow cache.
	OnAccel bool
}

// VCallPrice is one vcall's idle, fault-free price.
type VCallPrice struct {
	// Compute is the cycles the call charges the core.
	Compute float64
	// PktLines counts packet-memory line reads. Probes counts hash-bucket
	// accesses and Touches every other access in the state's region:
	// entries, array elements, sketch counters, LPM table lines and DPI
	// automaton rows.
	PktLines, Probes, Touches float64
	// Accel names the accelerator class the call visits ("" for none), and
	// AccelBytes the request size its service time scales with.
	Accel      string
	AccelBytes float64
}

// VCallPrice is the one vcall price rule. The simulator resolves it into
// its charges and executes the touches it counts at concrete addresses; the
// predictor and the mapper's cost model price their expectations through
// it, with expected cycles per touch. u is the pricing unit (nil prices its
// ALU at zero).
func (l *LNIC) VCallPrice(u *ComputeUnit, vc cir.VCall, in VCallIn) VCallPrice {
	var p VCallPrice
	if class := cir.VCalls[vc].Accelerable; in.OnAccel && class != "" {
		// The accelerator serves the call; a flow-cache miss still pays the
		// software lookup below.
		p.Accel, p.AccelBytes = class, in.Bytes
		if class != "flowcache" || in.Warm {
			return p
		}
	}
	switch vc {
	case cir.VCGetHdr:
		p.Compute = l.ParseCycles
		if in.Warm || in.ParseOnEngine {
			p.Compute = l.MetadataCycles
		}
	case cir.VCHdrField, cir.VCSetField, cir.VCEmit:
		p.Compute = l.MetadataCycles
	case cir.VCPayloadLen, cir.VCNow, cir.VCMapGet:
		p.Compute = 1
	case cir.VCRandom:
		p.Compute = 2
	case cir.VCPayloadByte:
		if in.Warm {
			p.Compute = 1 // register-file speed
		} else {
			p.PktLines = 1
		}
	case cir.VCChecksum:
		// Fixed setup plus one ALU per byte, reading the segment line by
		// line (the ~1700-extra-cycles path of §2.1).
		p.Compute = 100 + in.Bytes
		p.PktLines = math.Ceil(in.Bytes / float64(l.Mems[l.PktMem].LineSize()))
	case cir.VCCksumUpdate:
		p.Compute = 2*l.MetadataCycles + 4
	case cir.VCFlowKey, cir.VCHash:
		p.Compute = l.HashCycles
	case cir.VCCrypto:
		// Key schedule plus ~30 ALU operations per byte.
		p.Compute = 200 + in.Bytes*30*u.aluCycles()
	case cir.VCMapLookup:
		p.Compute, p.Probes = l.HashCycles, 1
		if in.Warm {
			p.Touches = 1
		}
	case cir.VCMapPut:
		p.Compute, p.Probes, p.Touches = l.HashCycles, 1, 1
	case cir.VCMapDelete:
		p.Compute, p.Probes = l.HashCycles, 1
	case cir.VCMapIncr:
		p.Touches = 2 // read-modify-write of the entry
		if !in.Warm {
			p.Compute, p.Probes = l.HashCycles, 1
		}
	case cir.VCLPMLookup:
		// The software match/action scan reads the whole table line by
		// line, with two compare/mask ALU operations per rule.
		line := l.Mems[in.Region].LineSize()
		p.Touches = float64((in.Entries*in.EntryBytes + line - 1) / line)
		p.Compute = float64(in.Entries) * 2 * u.aluCycles()
	case cir.VCArrRead, cir.VCArrWrite:
		p.Touches = 1
	case cir.VCSketchAdd, cir.VCSketchRead:
		p.Compute, p.Touches = l.HashCycles, SketchRows
	case cir.VCDPIScan:
		// Every byte reads the payload (a line read, or register-file speed
		// within a line), fetches one automaton row and steps the automaton.
		lines := l.PayloadLines(in.Offset, in.Bytes)
		p.Compute = DPIByteCycles*in.Bytes + (in.Bytes - lines)
		p.PktLines, p.Touches = lines, in.Bytes
	}
	return p
}

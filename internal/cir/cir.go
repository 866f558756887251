// Package cir defines the Clara Intermediate Representation (§3.3 of the
// paper). An unported NF is lowered into CIR: hardware-independent bytecode
// instructions organized as basic blocks, in which framework-specific API
// calls (Click handlers, eBPF helpers, DPDK library calls) have been
// substituted with "virtual calls" (vcalls). Vcalls are bound to concrete
// SmartNIC components later, during mapping.
//
// The package also provides an IR verifier, a compiled execution engine (the
// semantics the SmartNIC simulator, the predictor and the behaviour
// enumerator run, with instructions priced through a Meter), the reference
// interpreter it is tested against, and dataflow-graph extraction with the
// pattern matching that coarsens raw basic blocks into semantically
// meaningful code blocks (header-parse regions, payload loops, table
// operations).
package cir

import (
	"fmt"
	"strings"
)

// Reg names a virtual register. Registers hold 64-bit unsigned values; the
// NF dialect's narrower integer types are zero-extended into them.
type Reg int

// NoReg marks instructions that produce no value.
const NoReg Reg = -1

func (r Reg) String() string {
	if r == NoReg {
		return "_"
	}
	return fmt.Sprintf("r%d", int(r))
}

// Op is a CIR opcode. The set intentionally resembles a RISC subset plus a
// VCall escape hatch: the paper's mapper reasons about instruction classes,
// not exotic semantics.
type Op uint8

// CIR opcodes.
const (
	OpNop Op = iota
	// OpConst loads Imm into Dst.
	OpConst
	// OpCopy copies Args[0] into Dst.
	OpCopy
	// Integer arithmetic: Dst = Args[0] <op> Args[1].
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpMod
	OpAnd
	OpOr
	OpXor
	OpShl
	OpShr
	OpNot // Dst = ^Args[0]
	// Comparisons produce 0 or 1.
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	// Floating point (for NFs that use it; many SmartNIC cores lack FPUs and
	// must emulate these in software — the mapper accounts for that, §3.4).
	OpFAdd
	OpFMul
	OpFDiv
	// OpLoad/OpStore access NF-local scratch memory (arrays declared in the
	// NF). Size is the access width in bytes; Args[0] is the address
	// (element index scaled by the front end), Args[1] the value for stores.
	OpLoad
	OpStore
	// OpVCall invokes the virtual call Callee with Args; see the VCall
	// constants below.
	OpVCall
)

var opNames = [...]string{
	OpNop: "nop", OpConst: "const", OpCopy: "copy",
	OpAdd: "add", OpSub: "sub", OpMul: "mul", OpDiv: "div", OpMod: "mod",
	OpAnd: "and", OpOr: "or", OpXor: "xor", OpShl: "shl", OpShr: "shr", OpNot: "not",
	OpEq: "eq", OpNe: "ne", OpLt: "lt", OpLe: "le", OpGt: "gt", OpGe: "ge",
	OpFAdd: "fadd", OpFMul: "fmul", OpFDiv: "fdiv",
	OpLoad: "load", OpStore: "store",
	OpVCall: "vcall",
}

func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Class groups opcodes by the performance parameter that prices them
// (§3.2: "a subset of general-purpose compute instructions").
type Class uint8

// Instruction classes.
const (
	ClassNop Class = iota
	ClassALU       // add/sub/logic/compare/copy/const
	ClassMul
	ClassDiv
	ClassFloat // needs FPU or software emulation
	ClassMem   // local scratch load/store
	ClassVCall
)

func (c Class) String() string {
	switch c {
	case ClassNop:
		return "nop"
	case ClassALU:
		return "alu"
	case ClassMul:
		return "mul"
	case ClassDiv:
		return "div"
	case ClassFloat:
		return "float"
	case ClassMem:
		return "mem"
	case ClassVCall:
		return "vcall"
	default:
		return fmt.Sprintf("class(%d)", uint8(c))
	}
}

// ClassOf returns the pricing class of an opcode.
func ClassOf(op Op) Class {
	switch op {
	case OpNop:
		return ClassNop
	case OpMul:
		return ClassMul
	case OpDiv, OpMod:
		return ClassDiv
	case OpFAdd, OpFMul, OpFDiv:
		return ClassFloat
	case OpLoad, OpStore:
		return ClassMem
	case OpVCall:
		return ClassVCall
	default:
		return ClassALU
	}
}

// Instr is one CIR instruction.
type Instr struct {
	Op     Op
	Dst    Reg   // NoReg when the instruction produces no value
	Args   []Reg // operand registers
	Imm    uint64
	Callee VCall  // OpVCall only; zero elsewhere
	State  string // referenced state object, when the vcall addresses one
	// Slot is State's index in Program.State, resolved when the program is
	// built (Builder.Program) and checked by Verify, so an Env can bind a
	// vcall to its state object without looking the name up. It means
	// nothing when State is empty.
	Slot int
	Size int // access width for OpLoad/OpStore, bytes
}

func (in Instr) String() string {
	var b strings.Builder
	if in.Dst != NoReg {
		fmt.Fprintf(&b, "%s = ", in.Dst)
	}
	b.WriteString(in.Op.String())
	if in.Op == OpVCall {
		fmt.Fprintf(&b, " %s", in.Callee)
		if in.State != "" {
			fmt.Fprintf(&b, "[%s]", in.State)
		}
	}
	if in.Op == OpConst {
		fmt.Fprintf(&b, " %d", in.Imm)
	}
	for _, a := range in.Args {
		fmt.Fprintf(&b, " %s", a)
	}
	if in.Op == OpLoad || in.Op == OpStore {
		fmt.Fprintf(&b, " sz=%d", in.Size)
	}
	return b.String()
}

// TermKind distinguishes block terminators.
type TermKind uint8

// Terminator kinds.
const (
	TermJump TermKind = iota
	TermBranch
	TermReturn
)

// Terminator ends a basic block.
type Terminator struct {
	Kind TermKind
	Cond Reg // TermBranch: branch on Cond != 0
	Then int // target block index (TermJump uses Then)
	Else int
	Ret  Reg // TermReturn: verdict register, NoReg for implicit pass
}

func (t Terminator) String() string {
	switch t.Kind {
	case TermJump:
		return fmt.Sprintf("jump b%d", t.Then)
	case TermBranch:
		return fmt.Sprintf("branch %s ? b%d : b%d", t.Cond, t.Then, t.Else)
	case TermReturn:
		if t.Ret == NoReg {
			return "return"
		}
		return fmt.Sprintf("return %s", t.Ret)
	default:
		return "term(?)"
	}
}

// Block is a basic block: a branch-free instruction sequence plus one
// terminator, exactly the granularity LLVM reports (§3.3).
type Block struct {
	Label  string
	Instrs []Instr
	Term   Terminator
}

// StateKind classifies NF state objects. The mapper's memory constraints Γ
// place each object into an LNIC memory region (§3.4).
type StateKind uint8

// State object kinds.
const (
	StateMap     StateKind = iota // exact-match key/value table
	StateLPM                      // longest-prefix-match table
	StateArray                    // direct-indexed array
	StateSketch                   // count-min sketch (heavy hitters)
	StatePattern                  // DPI pattern set (read-only automaton)
)

func (k StateKind) String() string {
	switch k {
	case StateMap:
		return "map"
	case StateLPM:
		return "lpm"
	case StateArray:
		return "array"
	case StateSketch:
		return "sketch"
	case StatePattern:
		return "pattern"
	default:
		return fmt.Sprintf("state(%d)", uint8(k))
	}
}

// StateObj describes one piece of NF state.
type StateObj struct {
	Name      string
	Kind      StateKind
	KeySize   int // bytes per key
	ValueSize int // bytes per value/entry
	Capacity  int // number of entries the NF declares
	ReadOnly  bool
}

// Bytes returns the total footprint used by the memory-placement constraints.
func (s StateObj) Bytes() int {
	per := s.KeySize + s.ValueSize
	if per == 0 {
		per = 1
	}
	return per * s.Capacity
}

// Program is a lowered NF: its packet-handler function body plus state.
type Program struct {
	Name    string
	Blocks  []Block
	State   []StateObj
	NumRegs int
	// ScratchBytes is the NF's local scratch footprint (stack arrays); the
	// front end lays local arrays out in this space for OpLoad/OpStore.
	ScratchBytes int
	// Patterns holds DPI pattern strings per StatePattern object name; the
	// simulator builds its Aho-Corasick automaton from these, and the cost
	// model uses their count and lengths.
	Patterns map[string][]string
}

// Clone returns a deep copy of the program (optimization passes mutate in
// place; callers wanting before/after comparisons copy first).
func (p *Program) Clone() *Program {
	q := *p
	q.Blocks = make([]Block, len(p.Blocks))
	for i, b := range p.Blocks {
		nb := b
		nb.Instrs = make([]Instr, len(b.Instrs))
		for j, in := range b.Instrs {
			ni := in
			ni.Args = append([]Reg(nil), in.Args...)
			nb.Instrs[j] = ni
		}
		q.Blocks[i] = nb
	}
	q.State = append([]StateObj(nil), p.State...)
	q.Patterns = map[string][]string{}
	for k, v := range p.Patterns {
		q.Patterns[k] = append([]string(nil), v...)
	}
	return &q
}

// String renders the program as readable IR assembly.
func (p *Program) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "program %s (%d regs)\n", p.Name, p.NumRegs)
	for _, s := range p.State {
		fmt.Fprintf(&b, "  state %s %s key=%dB val=%dB cap=%d (%dB)\n",
			s.Name, s.Kind, s.KeySize, s.ValueSize, s.Capacity, s.Bytes())
	}
	for i, blk := range p.Blocks {
		label := blk.Label
		if label == "" {
			label = fmt.Sprintf("b%d", i)
		}
		fmt.Fprintf(&b, "%s:\n", label)
		for _, in := range blk.Instrs {
			fmt.Fprintf(&b, "  %s\n", in)
		}
		fmt.Fprintf(&b, "  %s\n", blk.Term)
	}
	return b.String()
}

// Verdict values returned by a packet handler.
const (
	VerdictPass uint64 = 0
	VerdictDrop uint64 = 1
)

// VCall names a virtual call — the vcall ABI. The front end substitutes
// framework API calls with these (§3.3's 'network_header' → 'vcall_get_hdr'
// example); the mapper binds each to LNIC components and the simulator
// implements their semantics. The zero value names no vcall: it is what
// every other instruction carries in Instr.Callee.
type VCall uint8

// Virtual calls; VCalls holds each one's source name and static properties.
const (
	VCGetHdr      VCall = iota + 1 // (proto) → 1 if header present; marks it parsed
	VCHdrField                     // (proto, field) → field value
	VCSetField                     // (proto, field, value); metadata/header modification
	VCPayloadLen                   // () → payload byte count
	VCPayloadByte                  // (i) → payload[i]
	VCChecksum                     // (proto) → recompute L4 checksum over payload
	VCCksumUpdate                  // (proto, old, new) → incremental checksum fix
	VCFlowKey                      // () → opaque key handle for the packet 5-tuple
	VCMapLookup                    // [state](key) → 1 if found; latches entry
	VCMapGet                       // [state](fieldIdx) → field of latched entry
	VCMapPut                       // [state](key, v0, v1) → insert/update
	VCMapDelete                    // [state](key)
	VCMapIncr                      // [state](key, fieldIdx, delta) → new value
	VCLPMLookup                    // [state](ipv4) → next hop, or ^0 on miss
	VCArrRead                      // [state](idx) → element value
	VCArrWrite                     // [state](idx, v)
	VCSketchAdd                    // [state](key) → estimated count after add
	VCSketchRead                   // [state](key) → estimated count
	VCDPIScan                      // [state]() → number of pattern matches in payload
	VCCrypto                       // (op, len) → 0; AES-class work over len bytes
	VCHash                         // (x) → 64-bit mix; priced as ALU burst
	VCNow                          // () → current time in cycles
	VCRandom                       // () → pseudo-random value (deterministic per packet)
	VCEmit                         // (port); queue packet to egress port
	// NumVCalls bounds the vocabulary: valid vcalls lie in [1, NumVCalls).
	NumVCalls
)

// Valid reports whether v names a vcall of the vocabulary.
func (v VCall) Valid() bool { return v > 0 && v < NumVCalls }

// String returns the vcall's source name, the one IR text prints.
func (v VCall) String() string {
	if v.Valid() {
		return VCalls[v].Name
	}
	return fmt.Sprintf("vcall(%d)", uint8(v))
}

// Header protocol identifiers used by VCGetHdr/VCHdrField/VCSetField.
const (
	ProtoEth uint64 = iota
	ProtoIPv4
	ProtoIPv6
	ProtoTCP
	ProtoUDP
	ProtoICMP
)

// Header field identifiers for VCHdrField/VCSetField. Field meaning depends
// on the proto operand.
const (
	FieldSrcAddr uint64 = iota // IPv4 src (or low 64 bits of IPv6 src)
	FieldDstAddr
	FieldSrcPort
	FieldDstPort
	FieldProto   // IPv4 protocol / IPv6 next header
	FieldTTL     // TTL / hop limit
	FieldLen     // total length field
	FieldFlags   // TCP flags
	FieldTOS     // IPv4 TOS / IPv6 traffic class
	FieldID      // IPv4 identification
	FieldSeq     // TCP sequence number
	FieldAck     // TCP acknowledgment number
	FieldWindow  // TCP window
	FieldEthType // EtherType
)

// VCallInfo captures static properties of a vcall the mapper needs.
type VCallInfo struct {
	// Name is the vcall's name in IR text.
	Name string
	// StateRef is true when the call addresses a state object (table ops),
	// which must be of kind State.
	StateRef bool
	State    StateKind
	// PayloadScaled is true when the call's cost grows with payload size.
	PayloadScaled bool
	// Node is the kind a dataflow node containing the call takes, unless
	// another of its calls ranks higher.
	Node NodeKind
	// Accelerable names the accelerator class that can execute this call
	// natively ("" when only general-purpose cores can).
	Accelerable string
}

// VCalls is the vcall catalog, indexed by VCall; entry 0 is empty.
var VCalls = [NumVCalls]VCallInfo{
	VCGetHdr:      {Name: "get_hdr", Node: NodeParse},
	VCHdrField:    {Name: "hdr_field"},
	VCSetField:    {Name: "set_field"},
	VCPayloadLen:  {Name: "payload_len"},
	VCPayloadByte: {Name: "payload_byte"},
	VCChecksum:    {Name: "checksum_pkt", Node: NodeChecksum, PayloadScaled: true, Accelerable: "checksum"},
	VCCksumUpdate: {Name: "cksum_update"},
	VCFlowKey:     {Name: "flow_key"},
	VCMapLookup:   {Name: "map_lookup", Node: NodeTableOp, StateRef: true, Accelerable: "flowcache"},
	VCMapGet:      {Name: "map_get", Node: NodeTableOp, StateRef: true},
	VCMapPut:      {Name: "map_put", Node: NodeTableOp, StateRef: true},
	VCMapDelete:   {Name: "map_delete", Node: NodeTableOp, StateRef: true},
	VCMapIncr:     {Name: "map_incr", Node: NodeTableOp, StateRef: true},
	VCLPMLookup:   {Name: "lpm_lookup", Node: NodeTableOp, StateRef: true, State: StateLPM, Accelerable: "flowcache"},
	VCArrRead:     {Name: "arr_read", Node: NodeTableOp, StateRef: true, State: StateArray},
	VCArrWrite:    {Name: "arr_write", Node: NodeTableOp, StateRef: true, State: StateArray},
	VCSketchAdd:   {Name: "sketch_add", Node: NodeTableOp, StateRef: true, State: StateSketch},
	VCSketchRead:  {Name: "sketch_read", Node: NodeTableOp, StateRef: true, State: StateSketch},
	VCDPIScan:     {Name: "dpi_scan", Node: NodePayloadLoop, StateRef: true, State: StatePattern, PayloadScaled: true},
	VCCrypto:      {Name: "crypto", Node: NodeCrypto, Accelerable: "crypto"},
	VCHash:        {Name: "hash"},
	VCNow:         {Name: "now"},
	VCRandom:      {Name: "random"},
	VCEmit:        {Name: "emit", Node: NodeEmit},
}

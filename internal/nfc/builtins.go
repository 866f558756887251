package nfc

import "clara/internal/cir"

// protoNames maps DSL protocol keywords to the vcall ABI constants.
var protoNames = map[string]uint64{
	"eth":  cir.ProtoEth,
	"ipv4": cir.ProtoIPv4,
	"ipv6": cir.ProtoIPv6,
	"tcp":  cir.ProtoTCP,
	"udp":  cir.ProtoUDP,
	"icmp": cir.ProtoICMP,
}

// fieldNames maps DSL header-field keywords to the vcall ABI constants.
var fieldNames = map[string]uint64{
	"src_addr": cir.FieldSrcAddr,
	"dst_addr": cir.FieldDstAddr,
	"src_port": cir.FieldSrcPort,
	"dst_port": cir.FieldDstPort,
	"proto":    cir.FieldProto,
	"ttl":      cir.FieldTTL,
	"len":      cir.FieldLen,
	"flags":    cir.FieldFlags,
	"tos":      cir.FieldTOS,
	"id":       cir.FieldID,
	"seq":      cir.FieldSeq,
	"ack":      cir.FieldAck,
	"window":   cir.FieldWindow,
	"ethtype":  cir.FieldEthType,
}

// argKind classifies what a builtin expects in each argument slot.
type argKind uint8

const (
	argExpr  argKind = iota // ordinary expression
	argProto                // protocol keyword (lowered to a constant)
	argField                // header-field keyword
	argState                // state object name (bound to the vcall)
	argLocal                // local scratch array name (lowered to its base)
)

// builtinSig describes one DSL builtin. Variadic builtins set varTail: the
// last argKind repeats.
type builtinSig struct {
	vcall     cir.VCall
	args      []argKind
	varTail   int // extra argExpr args allowed beyond len(args); -1 = none
	stateKind string
	hasResult bool
	// loadSize/storeSize nonzero for the scratch load/store pseudo-builtins,
	// which lower to OpLoad/OpStore instead of a vcall.
	loadSize  int
	storeSize int
}

var builtins = map[string]builtinSig{
	"parse":        {vcall: cir.VCGetHdr, args: []argKind{argProto}, varTail: -1, hasResult: true},
	"field":        {vcall: cir.VCHdrField, args: []argKind{argProto, argField}, varTail: -1, hasResult: true},
	"set_field":    {vcall: cir.VCSetField, args: []argKind{argProto, argField, argExpr}, varTail: -1},
	"payload_len":  {vcall: cir.VCPayloadLen, args: nil, varTail: -1, hasResult: true},
	"payload_byte": {vcall: cir.VCPayloadByte, args: []argKind{argExpr}, varTail: -1, hasResult: true},
	"checksum":     {vcall: cir.VCChecksum, args: []argKind{argProto}, varTail: -1, hasResult: true},
	"cksum_update": {vcall: cir.VCCksumUpdate, args: []argKind{argProto, argExpr, argExpr}, varTail: -1},
	"flow_key":     {vcall: cir.VCFlowKey, args: nil, varTail: -1, hasResult: true},
	"map_lookup":   {vcall: cir.VCMapLookup, args: []argKind{argState, argExpr}, varTail: -1, stateKind: "map", hasResult: true},
	"map_get":      {vcall: cir.VCMapGet, args: []argKind{argState, argExpr}, varTail: -1, stateKind: "map", hasResult: true},
	"map_put":      {vcall: cir.VCMapPut, args: []argKind{argState, argExpr}, varTail: 2, stateKind: "map"},
	"map_delete":   {vcall: cir.VCMapDelete, args: []argKind{argState, argExpr}, varTail: -1, stateKind: "map"},
	"map_incr":     {vcall: cir.VCMapIncr, args: []argKind{argState, argExpr, argExpr, argExpr}, varTail: -1, stateKind: "map", hasResult: true},
	"lpm_lookup":   {vcall: cir.VCLPMLookup, args: []argKind{argState, argExpr}, varTail: -1, stateKind: "lpm", hasResult: true},
	"arr_read":     {vcall: cir.VCArrRead, args: []argKind{argState, argExpr}, varTail: -1, stateKind: "array", hasResult: true},
	"arr_write":    {vcall: cir.VCArrWrite, args: []argKind{argState, argExpr, argExpr}, varTail: -1, stateKind: "array"},
	"sketch_add":   {vcall: cir.VCSketchAdd, args: []argKind{argState, argExpr}, varTail: -1, stateKind: "sketch", hasResult: true},
	"sketch_read":  {vcall: cir.VCSketchRead, args: []argKind{argState, argExpr}, varTail: -1, stateKind: "sketch", hasResult: true},
	"dpi_scan":     {vcall: cir.VCDPIScan, args: []argKind{argState}, varTail: -1, stateKind: "patterns", hasResult: true},
	"crypto":       {vcall: cir.VCCrypto, args: []argKind{argExpr, argExpr}, varTail: -1},
	"hash":         {vcall: cir.VCHash, args: []argKind{argExpr}, varTail: -1, hasResult: true},
	"now":          {vcall: cir.VCNow, args: nil, varTail: -1, hasResult: true},
	"random":       {vcall: cir.VCRandom, args: nil, varTail: -1, hasResult: true},
	"emit":         {vcall: cir.VCEmit, args: []argKind{argExpr}, varTail: -1},

	"load8":   {args: []argKind{argLocal, argExpr}, varTail: -1, hasResult: true, loadSize: 1},
	"load16":  {args: []argKind{argLocal, argExpr}, varTail: -1, hasResult: true, loadSize: 2},
	"load32":  {args: []argKind{argLocal, argExpr}, varTail: -1, hasResult: true, loadSize: 4},
	"load64":  {args: []argKind{argLocal, argExpr}, varTail: -1, hasResult: true, loadSize: 8},
	"store8":  {args: []argKind{argLocal, argExpr, argExpr}, varTail: -1, storeSize: 1},
	"store16": {args: []argKind{argLocal, argExpr, argExpr}, varTail: -1, storeSize: 2},
	"store32": {args: []argKind{argLocal, argExpr, argExpr}, varTail: -1, storeSize: 4},
	"store64": {args: []argKind{argLocal, argExpr, argExpr}, varTail: -1, storeSize: 8},
}

package nfc

import (
	"strings"
	"testing"

	"clara/internal/cir"
)

// stubEnv implements cir.Env with canned vcall results.
type stubEnv struct {
	ret   map[cir.VCall]uint64
	calls []cir.Instr
}

func (e *stubEnv) VCall(in *cir.Instr, args []uint64) (uint64, error) {
	e.calls = append(e.calls, *in)
	return e.ret[in.Callee], nil
}

func run(t *testing.T, src string, env *stubEnv) uint64 {
	t.Helper()
	p, err := Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if env == nil {
		env = &stubEnv{}
	}
	v, err := cir.NewInterp(p).Run(env, nil)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return v
}

func TestLexBasics(t *testing.T) {
	toks, err := Lex(`nf x { // comment
		const A = 0x10;
	}`)
	if err != nil {
		t.Fatal(err)
	}
	kinds := []TokKind{TokNF, TokIdent, TokLBrace, TokConst, TokIdent, TokAssign, TokInt, TokSemi, TokRBrace, TokEOF}
	if len(toks) != len(kinds) {
		t.Fatalf("tokens = %d, want %d", len(toks), len(kinds))
	}
	for i, k := range kinds {
		if toks[i].Kind != k {
			t.Errorf("token %d = %s, want %s", i, toks[i].Kind, k)
		}
	}
	if toks[6].Int != 16 {
		t.Errorf("hex literal = %d", toks[6].Int)
	}
}

func TestLexStringEscapes(t *testing.T) {
	toks, err := Lex(`"a\n\t\"b\\"`)
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Text != "a\n\t\"b\\" {
		t.Errorf("string = %q", toks[0].Text)
	}
}

func TestLexErrors(t *testing.T) {
	for _, src := range []string{"@", `"unterminated`, `"bad\q"`} {
		if _, err := Lex(src); err == nil {
			t.Errorf("Lex(%q): want error", src)
		}
	}
}

func TestLexPositions(t *testing.T) {
	toks, err := Lex("nf\n  foo")
	if err != nil {
		t.Fatal(err)
	}
	if toks[1].Pos.Line != 2 || toks[1].Pos.Col != 3 {
		t.Errorf("pos = %v, want 2:3", toks[1].Pos)
	}
}

func TestCompileMinimal(t *testing.T) {
	v := run(t, `nf noop { handler(pkt) { return pass; } }`, nil)
	if v != cir.VerdictPass {
		t.Errorf("verdict = %d", v)
	}
}

func TestImplicitReturn(t *testing.T) {
	v := run(t, `nf noop { handler(pkt) { var x = 1; } }`, nil)
	if v != cir.VerdictPass {
		t.Errorf("verdict = %d, want implicit pass", v)
	}
}

func TestArithmetic(t *testing.T) {
	// (2+3)*4 - 10/2 = 20-5 = 15; return 15 % 7 = 1 → drop
	v := run(t, `nf math { handler(pkt) {
		var x = (2+3)*4 - 10/2;
		return x % 7;
	} }`, nil)
	if v != 1 {
		t.Errorf("verdict = %d, want 1", v)
	}
}

func TestBitwiseAndShift(t *testing.T) {
	v := run(t, `nf bits { handler(pkt) {
		var x = (0xF0 & 0x3C) | (1 << 8);
		var y = x ^ 0x30;
		return y >> 4;
	} }`, nil)
	// 0xF0&0x3C=0x30; |0x100=0x130; ^0x30=0x100; >>4=0x10
	if v != 0x10 {
		t.Errorf("verdict = %#x, want 0x10", v)
	}
}

func TestUnaryOps(t *testing.T) {
	if v := run(t, `nf u { handler(pkt) { return !5; } }`, nil); v != 0 {
		t.Errorf("!5 = %d", v)
	}
	if v := run(t, `nf u { handler(pkt) { return !0; } }`, nil); v != 1 {
		t.Errorf("!0 = %d", v)
	}
	if v := run(t, `nf u { handler(pkt) { return ~0 - (0-1); } }`, nil); v != 0 {
		t.Errorf("~0 - (-1) = %d", v)
	}
}

func TestIfElseChain(t *testing.T) {
	src := `nf cls { handler(pkt) {
		var x = %d;
		if (x < 10) { return 1; }
		else if (x < 20) { return 2; }
		else { return 3; }
	} }`
	cases := map[string]uint64{"5": 1, "15": 2, "25": 3}
	for lit, want := range cases {
		s := strings.Replace(src, "%d", lit, 1)
		if v := run(t, s, nil); v != want {
			t.Errorf("x=%s: verdict = %d, want %d", lit, v, want)
		}
	}
}

func TestWhileLoop(t *testing.T) {
	v := run(t, `nf sum { handler(pkt) {
		var i = 0;
		var acc = 0;
		while (i < 10) {
			acc = acc + i;
			i = i + 1;
		}
		return acc;
	} }`, nil)
	if v != 45 {
		t.Errorf("sum = %d, want 45", v)
	}
}

func TestForLoopWithBreakContinue(t *testing.T) {
	v := run(t, `nf loop { handler(pkt) {
		var acc = 0;
		for (var i = 0; i < 100; i = i + 1) {
			if (i % 2 == 1) { continue; }
			if (i >= 10) { break; }
			acc = acc + i;
		}
		return acc;
	} }`, nil)
	if v != 20 { // 0+2+4+6+8
		t.Errorf("acc = %d, want 20", v)
	}
}

func TestShortCircuitAnd(t *testing.T) {
	env := &stubEnv{ret: map[cir.VCall]uint64{cir.VCPayloadLen: 0}}
	// payload_len() is 0, so map_lookup must never run.
	run(t, `nf sc {
		state m : map<4, 4>[16];
		handler(pkt) {
			var k = 1;
			if (payload_len() && map_lookup(m, k)) { return drop; }
			return pass;
		}
	}`, env)
	for _, c := range env.calls {
		if c.Callee == cir.VCMapLookup {
			t.Error("map_lookup ran despite short-circuit &&")
		}
	}
}

func TestShortCircuitOr(t *testing.T) {
	env := &stubEnv{ret: map[cir.VCall]uint64{cir.VCPayloadLen: 7}}
	run(t, `nf sc {
		state m : map<4, 4>[16];
		handler(pkt) {
			var k = 1;
			if (payload_len() || map_lookup(m, k)) { return drop; }
			return pass;
		}
	}`, env)
	for _, c := range env.calls {
		if c.Callee == cir.VCMapLookup {
			t.Error("map_lookup ran despite short-circuit ||")
		}
	}
	// And the verdict must be drop (lhs true).
	if v := run(t, `nf sc { handler(pkt) { if (1 || 0) { return drop; } return pass; } }`, nil); v != cir.VerdictDrop {
		t.Errorf("1||0 verdict = %d", v)
	}
}

func TestConstDecl(t *testing.T) {
	v := run(t, `nf c {
		const LIMIT = 42;
		handler(pkt) { return LIMIT + 1; }
	}`, nil)
	if v != 43 {
		t.Errorf("verdict = %d", v)
	}
}

func TestLocalArray(t *testing.T) {
	v := run(t, `nf arr { handler(pkt) {
		local buf[16];
		store32(buf, 0, 0xdeadbeef);
		store8(buf, 8, 0x7f);
		return load32(buf, 0) + load8(buf, 8);
	} }`, nil)
	if v != 0xdeadbeef+0x7f {
		t.Errorf("verdict = %#x", v)
	}
}

func TestProtoAndFieldKeywords(t *testing.T) {
	env := &stubEnv{ret: map[cir.VCall]uint64{cir.VCGetHdr: 1, cir.VCHdrField: 99}}
	v := run(t, `nf p { handler(pkt) {
		if (!parse(ipv4)) { return pass; }
		return field(ipv4, ttl);
	} }`, env)
	if v != 99 {
		t.Errorf("verdict = %d", v)
	}
	// get_hdr got ProtoIPv4; hdr_field got (ProtoIPv4, FieldTTL).
	var sawParse, sawField bool
	for _, c := range env.calls {
		switch c.Callee {
		case cir.VCGetHdr:
			sawParse = true
		case cir.VCHdrField:
			sawField = true
		}
	}
	if !sawParse || !sawField {
		t.Errorf("calls = %v", env.calls)
	}
}

func TestStateDeclKinds(t *testing.T) {
	p, err := Compile(`nf s {
		state f : map<13, 8>[1024];
		state r : lpm<4, 4>[30000];
		state a : array<8>[256];
		state h : sketch<4>[4096];
		state pats : patterns["evil", "bad"];
		handler(pkt) {
			var k = flow_key();
			map_put(f, k, 1, 2);
			var nh = lpm_lookup(r, 0x0a000001);
			arr_write(a, 3, nh);
			sketch_add(h, k);
			var m = dpi_scan(pats);
			return m;
		}
	}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.State) != 5 {
		t.Fatalf("states = %d", len(p.State))
	}
	kinds := map[string]cir.StateKind{}
	for _, s := range p.State {
		kinds[s.Name] = s.Kind
	}
	want := map[string]cir.StateKind{
		"f": cir.StateMap, "r": cir.StateLPM, "a": cir.StateArray,
		"h": cir.StateSketch, "pats": cir.StatePattern,
	}
	for n, k := range want {
		if kinds[n] != k {
			t.Errorf("state %s kind = %v, want %v", n, kinds[n], k)
		}
	}
	if got := p.Patterns["pats"]; len(got) != 2 || got[0] != "evil" {
		t.Errorf("patterns = %v", got)
	}
}

func TestStateKindMismatch(t *testing.T) {
	_, err := Compile(`nf s {
		state r : lpm<4, 4>[100];
		handler(pkt) {
			var k = 1;
			map_lookup(r, k);
			return pass;
		}
	}`)
	if err == nil || !strings.Contains(err.Error(), "requires map state") {
		t.Errorf("err = %v", err)
	}
}

func TestCompileErrors(t *testing.T) {
	cases := []struct {
		src, want string
	}{
		{`nf x { handler(pkt) { return y; } }`, "undefined identifier"},
		{`nf x { handler(pkt) { y = 1; } }`, "undefined variable"},
		{`nf x { handler(pkt) { var a = 1; var a = 2; } }`, "redeclared"},
		{`nf x { handler(pkt) { break; } }`, "break outside loop"},
		{`nf x { handler(pkt) { continue; } }`, "continue outside loop"},
		{`nf x { handler(pkt) { return pass; var a = 1; } }`, "unreachable"},
		{`nf x { handler(pkt) { bogus(1); } }`, "unknown builtin"},
		{`nf x { handler(pkt) { parse(1); } }`, "protocol keyword"},
		{`nf x { handler(pkt) { parse(nosuch); } }`, "unknown protocol"},
		{`nf x { handler(pkt) { field(ipv4, nosuch); } }`, "unknown header field"},
		{`nf x { handler(pkt) { parse(ipv4, tcp); } }`, "expects 1 argument"},
		{`nf x { handler(pkt) { map_lookup(m, 1); } }`, "undefined state"},
		{`nf x { state m : map<4,4>[8]; handler(pkt) { return m; } }`, "used as a value"},
		{`nf x { const A = 1; handler(pkt) { A = 2; } }`, "cannot assign to constant"},
		{`nf x { state m : map<4,4>[0]; handler(pkt) { return pass; } }`, "non-positive capacity"},
		{`nf x { handler(pkt) { local b[0]; } }`, "non-positive size"},
		{`nf x { state pass : map<4,4>[8]; handler(pkt) { return pass; } }`, "expected"},
		{`nf x { }`, "no handler"},
		{`nf x { handler(pkt) {} handler(pkt) {} }`, "duplicate handler"},
		{`nf x { handler(pkt) { load8(nope, 0); } }`, "undefined local array"},
		{`nf x { handler(pkt) { var parse = 1; } }`, "collides with a builtin"},
		{`nf x { handler(pkt) { var ipv4 = 1; } }`, "collides with a protocol"},
		{`nf x { handler(pkt) { var ttl = 1; } }`, "collides with a field"},
	}
	for _, c := range cases {
		_, err := Compile(c.src)
		if err == nil {
			t.Errorf("Compile(%q): want error containing %q", c.src, c.want)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("Compile(%q): err = %v, want containing %q", c.src, err, c.want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		`handler(pkt) {}`,               // missing nf
		`nf { }`,                        // missing name
		`nf x`,                          // missing brace
		`nf x { state s map<4,4>[8]; }`, // missing colon
		`nf x { state s : blob<4,4>[8]; handler(p){} }`, // bad kind
		`nf x { handler(pkt) { if 1 { } } }`,            // missing paren
		`nf x { handler(pkt) { var = 1; } }`,            // missing name
		`nf x { handler(pkt) { return pass } }`,         // missing semi
		`nf x { handler(pkt) { } } trailing`,            // trailing tokens
	}
	for _, src := range cases {
		if _, err := Compile(src); err == nil {
			t.Errorf("Compile(%q): want parse error", src)
		}
	}
}

func TestDataflowFromCompiledNF(t *testing.T) {
	p, err := Compile(`nf fw {
		state conns : map<13, 8>[10000];
		handler(pkt) {
			if (!parse(ipv4)) { return pass; }
			var k = flow_key();
			if (map_lookup(conns, k)) { return pass; }
			if (parse(tcp) && (field(tcp, flags) & 0x2)) {
				map_put(conns, k, 1, 0);
				return pass;
			}
			return drop;
		}
	}`)
	if err != nil {
		t.Fatal(err)
	}
	g, err := cir.BuildGraph(p)
	if err != nil {
		t.Fatal(err)
	}
	var hasTable bool
	for _, n := range g.Nodes {
		if n.Kind == cir.NodeTableOp {
			hasTable = true
		}
	}
	if !hasTable {
		t.Errorf("no table node in firewall graph:\n%s", g)
	}
}

func TestNestedLoops(t *testing.T) {
	v := run(t, `nf nest { handler(pkt) {
		var total = 0;
		for (var i = 0; i < 3; i = i + 1) {
			for (var j = 0; j < 4; j = j + 1) {
				if (j == 2) { continue; }
				total = total + 1;
			}
		}
		return total;
	} }`, nil)
	if v != 9 { // 3 × 3
		t.Errorf("total = %d, want 9", v)
	}
}

func TestVarScopeIsFlat(t *testing.T) {
	// The dialect has function-level scope (like C without block scoping of
	// redeclarations): a variable declared in a branch is visible after it.
	v := run(t, `nf scope { handler(pkt) {
		if (1) { var x = 5; }
		return x;
	} }`, nil)
	if v != 5 {
		t.Errorf("x after branch = %d", v)
	}
}

func BenchmarkCompileFirewall(b *testing.B) {
	src := `nf fw {
		state conns : map<13, 8>[10000];
		handler(pkt) {
			if (!parse(ipv4)) { return pass; }
			var k = flow_key();
			if (map_lookup(conns, k)) { return pass; }
			if (parse(tcp) && (field(tcp, flags) & 0x2)) {
				map_put(conns, k, 1, 0);
				return pass;
			}
			return drop;
		}
	}`
	for i := 0; i < b.N; i++ {
		if _, err := Compile(src); err != nil {
			b.Fatal(err)
		}
	}
}

package nf

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// programTextDigest is the SHA-256 of Program.String over every corpus NF in
// Names order, recorded when vcall callees were name strings: typed callees
// must print the same IR text.
const programTextDigest = "55c3666667c81212e985fe9d8fd91a0c5c604f96da8a21d63792b2ba381ea827"

func TestProgramTextUnchanged(t *testing.T) {
	h := sha256.New()
	for _, name := range Names() {
		p, err := All()[name].Compile()
		if err != nil {
			t.Fatal(err)
		}
		h.Write([]byte(p.String()))
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != programTextDigest {
		t.Errorf("program text digest = %s, want %s", got, programTextDigest)
	}
}

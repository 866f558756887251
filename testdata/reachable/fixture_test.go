package fixture

import "testing"

func TestWrap(t *testing.T) {
	if Wrap() != 1 {
		t.Fatal("Wrap")
	}
}

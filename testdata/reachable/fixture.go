// Package fixture holds the cases TestReachabilityScanner tells apart.
package fixture

import (
	"fmt"

	"fixture/internal/lib"
)

// Run is live: cmd/app calls it. It calls Live.Name and Dead.Kind, passes
// a Label to fmt and returns a Failure as an error, so Label.String and
// Failure.Error are reached only through their interfaces.
func Run() error {
	fmt.Println(lib.Live{}.Name(), lib.Dead{}.Kind(), lib.Label{})
	return lib.Failure{}
}

// Wrap and WrapContext are a wrapper chain that only a test calls: both
// are dead.
func Wrap() int { return WrapContext() }

// WrapContext is the end of the chain.
func WrapContext() int { return 1 }

// Command app is the fixture's one binary, the root of its reachability.
package main

import (
	"fmt"

	"fixture"
	"fixture/internal/lib"
)

func main() {
	fmt.Println(fixture.Run(), lib.Total(lib.Square{Side: 2}))
}

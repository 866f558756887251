// Package lib holds the methods the fixture's live code reaches, and one it
// does not.
package lib

// Live.Name is called directly.
type Live struct{}

// Name is live.
func (Live) Name() string { return "live" }

// Dead is reached, but only its Kind method is called.
type Dead struct{}

// Kind is live.
func (Dead) Kind() string { return "dead" }

// Name is dead, though it shares its name with the live Live.Name.
func (Dead) Name() string { return "dead" }

// Label is printed through fmt.Stringer.
type Label struct{}

// String is reached only through fmt.Stringer.
func (Label) String() string { return "label" }

// Failure is returned as an error.
type Failure struct{}

// Error is reached only through error.
func (Failure) Error() string { return "failure" }

// Shape is an interface of the module.
type Shape interface{ Area() int }

// Square is passed to Total as a Shape.
type Square struct{ Side int }

// Area is reached only through Shape.
func (s Square) Area() int { return s.Side * s.Side }

// Total sums the shapes' areas.
func Total(shapes ...Shape) int {
	sum := 0
	for _, s := range shapes {
		sum += s.Area()
	}
	return sum
}

package serve

import "sync"

// flightGroup deduplicates concurrent identical computations: while one
// caller runs fn for a key, later callers with the same key block and share
// its result instead of recomputing. This is the classic singleflight
// pattern (golang.org/x/sync/singleflight), reimplemented here because the
// repo is dependency-free; only the subset the server needs is provided.
type flightGroup struct {
	mu sync.Mutex
	m  map[string]*flightCall
}

type flightCall struct {
	done chan struct{}
	val  []byte
	err  error
	// dups counts the callers that joined after the leader (metrics).
	dups int
}

// do runs fn once per concurrently-active key, returning its result to
// every waiting caller. shared is true for callers that joined an in-flight
// computation rather than leading one.
func (g *flightGroup) do(key string, fn func() ([]byte, error)) (val []byte, err error, shared bool) {
	g.mu.Lock()
	if g.m == nil {
		g.m = map[string]*flightCall{}
	}
	if c, ok := g.m[key]; ok {
		c.dups++
		g.mu.Unlock()
		<-c.done
		return c.val, c.err, true
	}
	c := &flightCall{done: make(chan struct{})}
	g.m[key] = c
	g.mu.Unlock()

	// fn does not panic: the server's flights run in a job-engine attempt,
	// whose guard turns a panic into an error.
	c.val, c.err = fn()
	g.mu.Lock()
	delete(g.m, key)
	g.mu.Unlock()
	close(c.done)
	return c.val, c.err, false
}

// waiters reports how many callers are currently inside do across all keys
// (leaders plus joined duplicates). Test-only synchronization aid.
func (g *flightGroup) waiters() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	n := 0
	for _, c := range g.m {
		n += 1 + c.dups
	}
	return n
}

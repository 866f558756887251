package nicsim

// acAutomaton is an Aho–Corasick multi-pattern matcher in full-DFA form.
// The DPI NF's dpi_scan vcall walks it once per payload byte; its state
// count also sizes the automaton's memory footprint for the cache model.
type acAutomaton struct {
	// next[state][b] is the fully resolved transition table.
	next [][256]int32
	// outputs[state] counts patterns ending at state (including via suffix
	// links).
	outputs []int32
}

// buildAC constructs the automaton for the given patterns. Empty patterns
// are ignored.
func buildAC(patterns []string) *acAutomaton {
	// Trie construction.
	type trieNode struct {
		children [256]int32 // 0 = absent (state 0 is the root; root is never a child)
		out      int32
	}
	nodes := []trieNode{{}}
	for _, p := range patterns {
		if p == "" {
			continue
		}
		cur := int32(0)
		for i := 0; i < len(p); i++ {
			b := p[i]
			if nodes[cur].children[b] == 0 {
				nodes = append(nodes, trieNode{})
				nodes[cur].children[b] = int32(len(nodes) - 1)
			}
			cur = nodes[cur].children[b]
		}
		nodes[cur].out++
	}

	ac := &acAutomaton{
		next:    make([][256]int32, len(nodes)),
		outputs: make([]int32, len(nodes)),
	}
	for s := range nodes {
		ac.outputs[s] = nodes[s].out
	}
	fail := make([]int32, len(nodes))

	// BFS: build failure links and the resolved transition table together.
	var queue []int32
	for b := 0; b < 256; b++ {
		c := nodes[0].children[b]
		ac.next[0][b] = c // 0 when absent
		if c != 0 {
			fail[c] = 0
			queue = append(queue, c)
		}
	}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		ac.outputs[u] += ac.outputs[fail[u]]
		for b := 0; b < 256; b++ {
			c := nodes[u].children[b]
			if c == 0 {
				ac.next[u][b] = ac.next[fail[u]][b]
				continue
			}
			fail[c] = ac.next[fail[u]][b]
			ac.next[u][b] = c
			queue = append(queue, c)
		}
	}
	return ac
}

// States returns the automaton's state count.
func (ac *acAutomaton) States() int { return len(ac.next) }

// FootprintBytes is the DFA's table size (256 transitions × 4 bytes per
// state), used to place the pattern state in LNIC memory.
func (ac *acAutomaton) FootprintBytes() int { return ac.States() * 256 * 4 }

// Scan walks data and returns the total number of pattern matches. The
// simulator's dpiScan walks next itself, pricing each transition; Scan is
// its match-count oracle.
func (ac *acAutomaton) Scan(data []byte) int {
	matches := 0
	s := int32(0)
	for _, b := range data {
		s = ac.next[s][b]
		matches += int(ac.outputs[s])
	}
	return matches
}

package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one operation share Req;
// Parent is the ID of the span that made the call (0 for an operation's
// root). Start and End are offsets from the tracer's epoch.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Req    int           `json:"req"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs share the traced code paths at the cost of a nil
// check. Safe for concurrent use.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) begin(name string, parent, req int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: now, End: now})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// children indexes spans by parent ID.
func children(spans []span) map[int][]span {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	return kids
}

// covered is the length of the union of the intervals, each clipped to
// [lo, hi].
func covered(ivs [][2]time.Duration, lo, hi time.Duration) time.Duration {
	clipped := make([][2]time.Duration, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if b > a {
			clipped = append(clipped, [2]time.Duration{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total time.Duration
	var curA, curB time.Duration
	open := false
	for _, iv := range clipped {
		switch {
		case !open:
			curA, curB, open = iv[0], iv[1], true
		case iv[0] <= curB:
			curB = max(curB, iv[1])
		default:
			total += curB - curA
			curA, curB = iv[0], iv[1]
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// selfTimes returns each span's self time: its duration minus the part of
// it that its child spans cover. Overlapping children (a parallel fan-out)
// are counted once.
func selfTimes(spans []span) map[int]time.Duration {
	kids := children(spans)
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		ivs := make([][2]time.Duration, 0, len(kids[s.ID]))
		for _, c := range kids[s.ID] {
			ivs = append(ivs, [2]time.Duration{c.Start, c.End})
		}
		self[s.ID] = s.dur() - covered(ivs, s.Start, s.End)
	}
	return self
}

// exclusiveTimes splits every root span's wall time among the spans of its
// tree: each instant goes to the innermost spans open at that instant,
// shared equally when several run in parallel. Unlike self time, the shares
// of one tree add up exactly to its root's duration, so they say where the
// wall time of a parallel operation went.
func exclusiveTimes(spans []span) map[int]time.Duration {
	kids := children(spans)
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	excl := make(map[int]time.Duration, len(spans))
	for _, root := range spans {
		if root.Parent != 0 {
			continue
		}
		// Gather the tree, clipping descendants to their parents.
		tree := []span{root}
		for i := 0; i < len(tree); i++ {
			for _, c := range kids[tree[i].ID] {
				c.Start, c.End = max(c.Start, tree[i].Start), min(c.End, tree[i].End)
				if c.End > c.Start {
					tree = append(tree, c)
				}
			}
		}
		cuts := make([]time.Duration, 0, 2*len(tree))
		for _, s := range tree {
			cuts = append(cuts, s.Start, s.End)
		}
		sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
		for i := 0; i+1 < len(cuts); i++ {
			a, b := cuts[i], cuts[i+1]
			if b == a {
				continue
			}
			// Open spans over [a, b) with no open child are innermost.
			open := map[int]bool{}
			for _, s := range tree {
				if s.Start <= a && s.End >= b {
					open[s.ID] = true
				}
			}
			var inner []int
			for id := range open {
				leaf := true
				for _, c := range kids[id] {
					if open[c.ID] {
						leaf = false
						break
					}
				}
				if leaf {
					inner = append(inner, id)
				}
			}
			share := (b - a) / time.Duration(len(inner))
			for _, id := range inner {
				excl[id] += share
			}
		}
	}
	return excl
}

// spanStats aggregates spans by name: count, and mean duration, self time and
// exclusive time per span.
type spanStat struct {
	n                    int
	dur, self, exclusive time.Duration
}

func statsByName(spans []span) map[string]*spanStat {
	self := selfTimes(spans)
	excl := exclusiveTimes(spans)
	out := map[string]*spanStat{}
	for _, s := range spans {
		st := out[s.Name]
		if st == nil {
			st = &spanStat{}
			out[s.Name] = st
		}
		st.n++
		st.dur += s.dur()
		st.self += self[s.ID]
		st.exclusive += excl[s.ID]
	}
	return out
}

// meanSelfUs is the mean self time of the named spans in microseconds (0
// when none were recorded).
func (st *spanStat) meanSelfUs() float64 {
	if st == nil || st.n == 0 {
		return 0
	}
	return float64(st.self) / float64(st.n) / 1e3
}

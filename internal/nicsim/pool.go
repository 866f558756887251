package nicsim

import (
	"context"
	"sync"
)

// This file is the Sim pool behind the sharded engine, which builds one
// fully fresh simulator per window: the construction itself — state-table
// maps, cache arrays and above all the compiled CIR engine — dominated the
// allocation profile of a sharded run. The pool recycles a finished
// window's Sim for the next window of the same run, replacing
// construction with reset(), which clears the tables and caches a run
// dirtied and then runs initRun, the per-run initialiser a fresh NewContext
// build runs too: RNG streams, fault report, timeline, server free times
// and array preloads are derived from the new window's config by one piece
// of code either way.
//
// The contract that makes recycling sound: every Config handed to one pool
// shares the same NIC, Prog, Place, Preload and resolved state seed — only
// Seed and Faults.Seed vary per window. shardConfig guarantees this (it
// pins StateSeed before deriving the window seed). Contents derived from
// the state seed (LPM rule tables, DPI automata) are therefore
// bit-identical across the pool's windows and survive reset untouched;
// everything mutable is cleared or rebuilt. TestSimResetEquivalence pins
// reset-vs-fresh equality end to end, and the shard/worker-invariance suite
// enforces it continuously: a pooled window must merge to the same Result
// regardless of which worker (and hence which recycled Sim) ran it.

// reset restores s to the state NewContext(ctx, cfg) would have produced,
// reusing every allocation whose shape is config-invariant: it clears the
// tables and caches a run dirtied, then runs the per-run initialiser a fresh
// build runs. LPM rules and DPI automata derive solely from the resolved
// state seed, which the pool contract pins, so they are already identical to
// what a fresh build would synthesize. cfg must agree with the Sim's original
// config on everything except Seed and Faults (see the file comment); the
// caller is responsible for that invariant.
func (s *Sim) reset(cfg Config) {
	for _, c := range s.caches {
		if c != nil {
			c.reset()
		}
	}
	if s.fc != nil {
		s.fc.reset()
	}
	clear(s.latch)
	for i := range s.slots {
		sl := &s.slots[i]
		switch {
		case sl.m != nil:
			sl.m.reset()
		case sl.sk != nil:
			sl.sk.reset()
		case sl.a != nil:
			sl.a.reset()
		}
	}
	s.initRun(cfg)
}

// simPool recycles Sims across the windows of one sharded run. The zero
// value is ready to use; one pool must only ever see configs that are
// reset-compatible (see the file comment).
type simPool struct {
	p sync.Pool
}

// get returns a simulator for cfg: a recycled one reset to cfg when the
// pool has one, a freshly built one otherwise.
func (sp *simPool) get(ctx context.Context, cfg Config) (*Sim, error) {
	if v := sp.p.Get(); v != nil {
		s := v.(*Sim)
		s.reset(cfg)
		return s, nil
	}
	return NewContext(ctx, cfg)
}

// put returns a finished window's Sim to the pool. The caller must be done
// reading it (captureCounters runs before put).
func (sp *simPool) put(s *Sim) {
	sp.p.Put(s)
}

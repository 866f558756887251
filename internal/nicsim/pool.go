package nicsim

import (
	"context"
	"sync"
)

// This file is the Sim pool behind the sharded and co-located engines. Both
// engines build one fully fresh simulator per window (per tenant, when
// co-located): the construction itself — state-table maps, cache arrays and
// above all the compiled CIR engine — dominated the allocation profile
// of a sharded run. The pool recycles a finished window's Sim for the next
// window of the same stream, replacing construction with reset(), which
// restores every piece of mutable state to what NewContext would have built
// and re-derives the RNG streams from the new window's config.
//
// The contract that makes recycling sound: every Config handed to one pool
// shares the same NIC, Prog, Place, Preload and resolved state seed — only
// Seed and Faults.Seed vary per window. shardConfig guarantees this for the
// sharded engine (it pins StateSeed before deriving the window seed) and
// colocTenantConfig for the co-located one (one pool per tenant). Contents
// derived from the state seed (LPM rule tables, DPI automata) are therefore
// bit-identical across the pool's windows and survive reset untouched;
// everything mutable is cleared or rebuilt. TestSimResetEquivalence pins
// reset-vs-fresh equality end to end, and the shard/worker-invariance suite
// enforces it continuously: a pooled window must merge to the same Result
// regardless of which worker (and hence which recycled Sim) ran it.

// reset restores s to the state NewContext(ctx, cfg) would have produced,
// reusing every allocation whose shape is config-invariant. cfg must agree
// with the Sim's original config on everything except Seed and Faults (see
// the file comment); the caller is responsible for that invariant.
func (s *Sim) reset(cfg Config) {
	s.cfg = cfg
	s.faults = cfg.Faults
	s.rngState = uint64(cfg.Seed)*2862933555777941757 + 3037000493
	if s.rngState == 0 {
		s.rngState = 0x2545F4914F6CDD1D
	}
	s.frngState = 0
	if s.faults != nil {
		seed := s.faults.Seed
		if seed == 0 {
			seed = cfg.Seed
		}
		s.frngState = uint64(seed)*0x9E3779B97F4A7C15 + 0x2545F4914F6CDD1D
		if s.frngState == 0 {
			s.frngState = 0x9E3779B97F4A7C15
		}
	}
	s.report = FaultReport{}
	s.pktFaulted = false
	s.runDPI = 0
	s.svcSum, s.svcCount = 0, 0
	s.tl = nil
	s.memCycles = nil
	if cfg.Timeline {
		s.tl = &Timeline{NF: cfg.Prog.Name, NIC: cfg.NIC.Name, ClockGHz: cfg.NIC.ClockGHz}
		s.memCycles = make([]float64, len(cfg.NIC.Mems))
	}
	s.curPkt = 0

	// Undo any co-location rewiring: point the shared-resource fields back
	// at this Sim's own instances and clear the arbitration state.
	s.tenant, s.coloc = 0, nil
	s.contStall, s.contWaits, s.contCycles = 0, nil, nil
	s.caches = s.ownCaches
	for _, c := range s.caches {
		if c != nil {
			c.reset()
		}
	}
	s.fc = s.ownFC
	if s.fc != nil {
		s.fc.reset()
	}

	// Server free times: the full thread pool (shareIslands may have shrunk
	// threadFree to a tenant share, so rebuild when the length drifted), and
	// empty hub/unit tables (inner slices are built lazily on first visit).
	if len(s.threadFree) == s.nThreads {
		for i := range s.threadFree {
			s.threadFree[i] = 0
		}
	} else {
		s.threadFree = make([]float64, s.nThreads)
	}
	s.threads.init(s.threadFree)
	s.hubFree = make([][]float64, len(s.nic.Hubs))
	s.unitFree = make([][]float64, len(s.nic.Units))

	// State objects: tables and counters return to their preloaded image.
	// LPM rules and DPI automata derive solely from the resolved state seed,
	// which the pool contract pins, so they are already identical to what a
	// fresh build would synthesize.
	stSeed := cfg.StateSeed
	if stSeed == 0 {
		stSeed = cfg.Seed
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
			name := s.prog.State[i].Name
			if n := cfg.Preload[name]; n > 0 {
				sl.a.preload(n, stateSeed(stSeed, name))
			}
		}
	}
}

// simPool recycles Sims across the windows of one sharded or co-located
// run. A nil pool degrades to plain construction. The zero value is ready
// to use; one pool must only ever see configs that are reset-compatible
// (see the file comment).
type simPool struct {
	p sync.Pool
}

// get returns a simulator for cfg: a recycled one reset to cfg when the
// pool has one, a freshly built one otherwise.
func (sp *simPool) get(ctx context.Context, cfg Config) (*Sim, error) {
	if sp != nil {
		if v := sp.p.Get(); v != nil {
			s := v.(*Sim)
			s.reset(cfg)
			return s, nil
		}
	}
	return NewContext(ctx, cfg)
}

// put returns a finished window's Sim to the pool. The caller must be done
// reading it (captureCounters runs before put).
func (sp *simPool) put(s *Sim) {
	if sp != nil && s != nil {
		sp.p.Put(s)
	}
}

package nicsim

import (
	"context"
	"reflect"
	"testing"

	"clara/internal/nf"
	"clara/internal/workload"
)

// TestSimResetEquivalence pins the Sim pool's core contract: a simulator
// that already ran a full window (mutating its tables, caches, heaps and
// RNG streams), was rewired by the co-location engine, and is then reset to
// a new window config must behave exactly like a freshly constructed Sim of
// that config — DeepEqual Results, identical cache and flow-cache counters.
// The full NF corpus runs so every state-object kind (map, LPM, sketch,
// array, pattern) crosses a reset.
func TestSimResetEquivalence(t *testing.T) {
	p := workload.DefaultProfile()
	p.Packets = 160
	p.Flows = 24
	tr, err := workload.GenerateContext(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	tr.Decoded()
	faults := &Faults{
		Corrupt:  0.05,
		Degrade:  map[string]float64{"checksum": 2},
		MemFault: map[string]float64{"emem": 0.02},
		QueueCap: 64,
		Seed:     9,
	}
	for _, name := range nf.Names() {
		spec := nf.All()[name]
		t.Run(name, func(t *testing.T) {
			// Window configs A and B follow the pool contract (shardConfig's
			// shape): shared state seed, different runtime and fault streams.
			cfgA := shardTestConfig(t, spec, faults, true)
			cfgA.StateSeed = 42
			cfgB := shardTestConfig(t, spec, faults, true)
			cfgB.StateSeed = 42
			cfgB.Seed = 1007
			cfgB.Faults.Seed = 77

			dirty, err := NewContext(context.Background(), cfgA)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := dirty.RunContext(context.Background(), tr); err != nil {
				t.Fatal(err)
			}
			// Adversarial extra: rewire the dirty Sim the way a co-located
			// window would (shrunken thread pool, resources aliased to a lead
			// tenant), so reset must also undo island sharing.
			lead, err := NewContext(context.Background(), cfgA)
			if err != nil {
				t.Fatal(err)
			}
			n := dirty.nThreads
			shareIslands([]*Sim{lead, dirty}, []int{0, 1}, []int{(n + 1) / 2, n / 2})

			dirty.reset(cfgB)
			got, err := dirty.RunContext(context.Background(), tr)
			if err != nil {
				t.Fatal(err)
			}

			fresh, err := NewContext(context.Background(), cfgB)
			if err != nil {
				t.Fatal(err)
			}
			want, err := fresh.RunContext(context.Background(), tr)
			if err != nil {
				t.Fatal(err)
			}

			if !reflect.DeepEqual(normalizeResult(want), normalizeResult(got)) {
				for i := range want.Packets {
					if i < len(got.Packets) && !reflect.DeepEqual(want.Packets[i], got.Packets[i]) {
						t.Fatalf("packet %d differs after reset\nfresh: %+v\nreset: %+v",
							i, want.Packets[i], got.Packets[i])
					}
				}
				t.Fatalf("reset Sim diverged from fresh Sim\nfresh: faults=%+v hits=%v fchr=%v errs=%d\nreset: faults=%+v hits=%v fchr=%v errs=%d",
					want.Faults, want.CacheHitRate, want.FlowCacheHitRate, want.Errors,
					got.Faults, got.CacheHitRate, got.FlowCacheHitRate, got.Errors)
			}
			for id := range fresh.caches {
				fc, dc := fresh.caches[id], dirty.caches[id]
				if (fc == nil) != (dc == nil) {
					t.Fatalf("region %d: cache presence differs after reset", id)
				}
				if fc != nil && (fc.hits != dc.hits || fc.misses != dc.misses) {
					t.Fatalf("region %d: cache counters differ: fresh %d/%d, reset %d/%d",
						id, fc.hits, fc.misses, dc.hits, dc.misses)
				}
			}
			if (fresh.fc == nil) != (dirty.fc == nil) {
				t.Fatal("flow-cache presence differs after reset")
			}
			if fresh.fc != nil && (fresh.fc.hits != dirty.fc.hits || fresh.fc.misses != dirty.fc.misses) {
				t.Fatalf("flow-cache counters differ: fresh %d/%d, reset %d/%d",
					fresh.fc.hits, fresh.fc.misses, dirty.fc.hits, dirty.fc.misses)
			}
		})
	}
}

package nicsim

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"clara/internal/workload"
)

// sortedArrivalsRef is the merged arrival order as RunColocatedContext built
// it before the k-way merge: every active tenant's packets collected, then
// one comparison sort by (arrival, tenant, index). mergeArrivals must
// reproduce it exactly.
func sortedArrivalsRef(tenants []Tenant, active []int) []colocEvent {
	var events []colocEvent
	for _, t := range active {
		for i := range tenants[t].Trace.Packets {
			events = append(events, colocEvent{tenant: t, idx: i})
		}
	}
	sort.Slice(events, func(a, b int) bool {
		ea, eb := events[a], events[b]
		ta := tenants[ea.tenant].Trace.Packets[ea.idx].ArrivalNs
		tb := tenants[eb.tenant].Trace.Packets[eb.idx].ArrivalNs
		if ta != tb {
			return ta < tb
		}
		if ea.tenant != eb.tenant {
			return ea.tenant < eb.tenant
		}
		return ea.idx < eb.idx
	})
	return events
}

// arrivalTrace builds a trace holding only arrival times; the merge reads
// nothing else.
func arrivalTrace(arrivals []float64) *workload.Trace {
	tr := &workload.Trace{Packets: make([]workload.TracePacket, len(arrivals))}
	for i, a := range arrivals {
		tr.Packets[i].ArrivalNs = a
	}
	return tr
}

// TestMergeArrivalsMatchesSort holds the k-way merge to the comparison sort
// it replaced: one to three tenants, timestamp ties across tenants,
// duplicate timestamps within a tenant, an out-of-order tenant, empty
// traces and zero-weight tenants (which the merge never sees).
func TestMergeArrivalsMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	// sorted draws n arrivals on a coarse grid, so duplicates and
	// cross-tenant ties are common; shuffled leaves them out of order.
	sorted := func(n int) []float64 {
		a := make([]float64, n)
		now := 0.0
		for i := range a {
			now += float64(rng.Intn(3)) * 100
			a[i] = now
		}
		return a
	}
	shuffled := func(n int) []float64 {
		a := sorted(n)
		rng.Shuffle(len(a), func(i, j int) { a[i], a[j] = a[j], a[i] })
		return a
	}
	cases := []struct {
		name     string
		arrivals [][]float64
		weights  []float64
	}{
		{"one tenant", [][]float64{sorted(300)}, []float64{1}},
		{"one out-of-order tenant", [][]float64{shuffled(300)}, []float64{1}},
		{"two tenants tied", [][]float64{{0, 100, 100, 200}, {0, 100, 200, 200}}, []float64{1, 1}},
		{"two tenants", [][]float64{sorted(250), sorted(400)}, []float64{1, 3}},
		{"three tenants, one out of order", [][]float64{sorted(200), shuffled(300), sorted(100)}, []float64{1, 1, 2}},
		{"three tenants, backwards capture", [][]float64{{500, 400, 400, 300, 0}, sorted(50), {400, 400}}, []float64{1, 1, 1}},
		{"zero-weight tenants", [][]float64{sorted(100), shuffled(100), sorted(100)}, []float64{0, 1, -1}},
		{"empty trace", [][]float64{{}, sorted(100), {}}, []float64{1, 1, 1}},
		{"all empty", [][]float64{{}, {}}, []float64{1, 1}},
	}
	for k := 0; k < 20; k++ {
		var arrivals [][]float64
		var weights []float64
		for tn := 1 + rng.Intn(3); tn > 0; tn-- {
			n := rng.Intn(200)
			if rng.Intn(3) == 0 {
				arrivals = append(arrivals, shuffled(n))
			} else {
				arrivals = append(arrivals, sorted(n))
			}
			weights = append(weights, float64(rng.Intn(3)))
		}
		cases = append(cases, struct {
			name     string
			arrivals [][]float64
			weights  []float64
		}{fmt.Sprintf("random %d", k), arrivals, weights})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var tenants []Tenant
			var active []int
			for i, a := range c.arrivals {
				tenants = append(tenants, Tenant{Weight: c.weights[i], Trace: arrivalTrace(a)})
				if c.weights[i] > 0 {
					active = append(active, i)
				}
			}
			got, want := mergeArrivals(tenants, active), sortedArrivalsRef(tenants, active)
			if len(got) != len(want) {
				t.Fatalf("merge yields %d events, sort %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("event %d of %d: merge %+v, sort %+v", i, len(want), got[i], want[i])
				}
			}
		})
	}
}

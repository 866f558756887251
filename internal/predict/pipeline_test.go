package predict

import (
	"context"
	"testing"

	"clara/internal/lnic"
	"clara/internal/mapper"
	"clara/internal/nf"
	"clara/internal/obs"
	"clara/internal/workload"
)

// TestPipelinePhase1Admission: a Pipeline holds no phase-1 snapshot for a
// target name until that name's second map, then one per name; a target of
// the same name whose memory capacities alone are halved changes only
// passenger rows and replays the snapshot, while one whose pipeline stages
// change replaces it; and the slots stay bounded when co-location's slices
// bring a name per weight.
func TestPipelinePhase1Admission(t *testing.T) {
	m := obs.New()
	ctx := obs.With(context.Background(), m)
	p, err := NewPipeline(nf.Firewall(65536).MustCompile())
	if err != nil {
		t.Fatal(err)
	}
	wl := mapper.FromProfile(workload.DefaultProfile())
	held := func() (n int) {
		p.p1Mu.Lock()
		defer p.p1Mu.Unlock()
		for _, s := range p.phase1 {
			if s != nil {
				n++
			}
		}
		return n
	}
	mapOn := func(nic *lnic.LNIC) {
		t.Helper()
		if _, err := p.Map(ctx, nic, wl, mapper.Hints{}); err != nil {
			t.Fatal(err)
		}
	}
	nic := lnic.Netronome()
	mapOn(nic)
	if n := held(); n != 0 {
		t.Fatalf("after the first map: %d snapshots held, want 0", n)
	}
	mapOn(nic)
	first := p.phase1[nic.Name]
	if n := held(); n != 1 || first == nil {
		t.Fatalf("after the second map: %d snapshots held, want 1 for %s", n, nic.Name)
	}
	mapOn(nic)
	if p.phase1[nic.Name] != first {
		t.Error("a repeated map replaced the snapshot it reused")
	}
	halved := lnic.Netronome()
	for i := range halved.Mems {
		halved.Mems[i].Bytes /= 2 // halves every capacity row's rhs
	}
	mapOn(halved)
	if n, s := held(), p.phase1[nic.Name]; n != 1 || s != first {
		t.Errorf("after a map on %s with halved capacities: %d snapshots held, replaced %v; want 1, kept", nic.Name, n, s != first)
	}
	if r := m.Counter("clara_map_phase1_replays_total").Value(); r != 1 {
		t.Errorf("halved capacities replayed the snapshot %d times, want 1", r)
	}
	staged := lnic.Netronome()
	for i := range staged.Units {
		if staged.Units[i].Kind == lnic.UnitEgress {
			staged.Units[i].Stage++ // changes the Π ordering rows
		}
	}
	mapOn(staged)
	if n, s := held(), p.phase1[nic.Name]; n != 1 || s == first {
		t.Errorf("after a map on %s with a later egress stage: %d snapshots held, replaced %v; want 1, replaced", nic.Name, n, s != first)
	}

	for i := 1; i <= 2*phase1CacheCap; i++ {
		sl := nic.Slice(float64(i) / float64(2*phase1CacheCap))
		mapOn(sl)
		mapOn(sl)
	}
	p.p1Mu.Lock()
	names := len(p.phase1)
	p.p1Mu.Unlock()
	if names > phase1CacheCap {
		t.Errorf("%d target names held, cap %d", names, phase1CacheCap)
	}
	if n := held(); n > names {
		t.Errorf("%d snapshots for %d names", n, names)
	}
}

package clara

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"clara/internal/nf"
)

// TestSharedStateConcurrentAdvise advises one NF from several goroutines
// at once, each under workloads of its own, while the NF builds and reuses
// its kept state on the shared targets; every ranking must equal the
// sequential ranking of a fresh NF. Run it under -race.
func TestSharedStateConcurrentAdvise(t *testing.T) {
	src := nf.All()["vnfchain"].Source
	nfo, err := CompileNF(src)
	if err != nil {
		t.Fatal(err)
	}
	const workers, calls = 4, 6
	spec := func(w, k int) string {
		return fmt.Sprintf("flows=%d,size=%d,rate=%d,tcp=0.%d", 100+977*w+31*k, 64+211*k, 20000+10000*w, 1+(w+k)%9)
	}
	got := make([][]Advice, workers*calls)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < calls; k++ {
				wl, err := ParseWorkload(spec(w, k))
				if err != nil {
					t.Error(err)
					return
				}
				if got[w*calls+k], err = AdviseContext(context.Background(), nfo, wl, 0); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		for k := 0; k < calls; k++ {
			fresh, err := CompileNF(src)
			if err != nil {
				t.Fatal(err)
			}
			wl, err := ParseWorkload(spec(w, k))
			if err != nil {
				t.Fatal(err)
			}
			want, err := AdviseContext(context.Background(), fresh, wl, 1)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got[w*calls+k], want) {
				t.Errorf("worker %d call %d (%s): ranking differs from a fresh NF's", w, k, spec(w, k))
			}
		}
	}
}

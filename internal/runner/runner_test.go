package runner

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapOrdering(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 64} {
		got, err := Map(context.Background(), workers, 100, func(_ context.Context, i int) (int, error) {
			return i * i, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != 100 {
			t.Fatalf("workers=%d: len = %d", workers, len(got))
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: got[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapMatchesSequential(t *testing.T) {
	fn := func(_ context.Context, i int) (string, error) {
		return fmt.Sprintf("item-%03d", i), nil
	}
	seq, err := Map(context.Background(), 1, 50, fn)
	if err != nil {
		t.Fatal(err)
	}
	par, err := Map(context.Background(), 8, 50, fn)
	if err != nil {
		t.Fatal(err)
	}
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("results diverge at %d: %q vs %q", i, seq[i], par[i])
		}
	}
}

func TestMapFirstErrorCancels(t *testing.T) {
	boom := errors.New("boom")
	var ran atomic.Int64
	_, err := Map(context.Background(), 4, 1000, func(ctx context.Context, i int) (int, error) {
		ran.Add(1)
		if i == 5 {
			return 0, boom
		}
		// Give the cancellation a chance to beat the queue drain.
		select {
		case <-ctx.Done():
		case <-time.After(time.Millisecond):
		}
		return i, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if n := ran.Load(); n == 1000 {
		t.Errorf("cancellation did not skip any queued work (%d items ran)", n)
	}
}

func TestMapZeroItems(t *testing.T) {
	got, err := Map(context.Background(), 4, 0, func(_ context.Context, i int) (int, error) {
		t.Fatal("fn called for empty input")
		return 0, nil
	})
	if err != nil || got != nil {
		t.Fatalf("got %v, %v", got, err)
	}
}

func TestMapParentCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Map(ctx, 4, 10, func(ctx context.Context, i int) (int, error) {
		return i, ctx.Err()
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestMapBoundsConcurrency(t *testing.T) {
	const workers = 3
	var cur, peak atomic.Int64
	_, err := Map(context.Background(), workers, 64, func(_ context.Context, i int) (int, error) {
		c := cur.Add(1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
		time.Sleep(200 * time.Microsecond)
		cur.Add(-1)
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Errorf("peak concurrency %d exceeds workers %d", p, workers)
	}
}

func TestParallelism(t *testing.T) {
	if Parallelism(0) < 1 || Parallelism(-3) < 1 {
		t.Error("non-positive requests must resolve to >= 1")
	}
	if Parallelism(7) != 7 {
		t.Error("positive requests pass through")
	}
}

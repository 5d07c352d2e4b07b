package workpool

import (
	"context"
	"errors"
	"sync"
	"testing"
)

func TestRunDispatchesEveryUnit(t *testing.T) {
	var (
		mu   sync.Mutex
		seen = map[int]int{}
	)
	err := Run(context.Background(), 17, 4, func(ctx context.Context, unit int) error {
		mu.Lock()
		seen[unit]++
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 17 {
		t.Fatalf("ran %d/17 units", len(seen))
	}
	for unit, n := range seen {
		if n != 1 {
			t.Fatalf("unit %d ran %d times", unit, n)
		}
	}
}

func TestRunFatalErrorCancelsPool(t *testing.T) {
	boom := errors.New("boom")
	err := Run(context.Background(), 64, 2, func(ctx context.Context, unit int) error {
		if unit == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
}

// TestMeterTicksAndFlushes: the meter calls back every `every` ticks and on
// every flush, with the tally folded so far; adds ride along silently, and
// concurrent ticks are serialized.
func TestMeterTicksAndFlushes(t *testing.T) {
	type tally struct{ ticks, adds, flushes int }
	var snaps []tally // appended by the serialized callback only
	m := NewMeter(func(p tally) { snaps = append(snaps, p) }, 4, tally{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				m.Tick(func(p *tally) { p.ticks++ })
				m.Add(func(p *tally) { p.adds++ })
			}
		}()
	}
	wg.Wait()
	m.Flush(func(p *tally) { p.flushes++ })
	if len(snaps) != 24/4+1 {
		t.Fatalf("%d callbacks for 24 ticks every 4 plus a flush, want 7", len(snaps))
	}
	for i, s := range snaps[:6] {
		if s.ticks != 4*(i+1) {
			t.Fatalf("callback %d saw %d ticks, want %d", i, s.ticks, 4*(i+1))
		}
	}
	if last := snaps[6]; last != (tally{24, 24, 1}) {
		t.Fatalf("flush saw %+v, want every tick, add and the flush", last)
	}
	if NewMeter[tally](nil, 4, tally{}) != nil {
		t.Fatal("a meter without a callback must be the nil (disabled) meter")
	}
}

// TestNilMeterAllocationFree: the disabled meter is the nil receiver, so
// an engine with no listener pays one pointer check per call — no
// allocation even for closures that capture per-call state.
func TestNilMeterAllocationFree(t *testing.T) {
	var m *Meter[int]
	n := 0
	if a := testing.AllocsPerRun(100, func() {
		n++
		m.Tick(func(p *int) { *p += n })
		m.Add(func(p *int) { *p += n })
		m.Flush(func(p *int) { *p += n })
	}); a != 0 {
		t.Fatalf("nil meter allocated %.0f times per call", a)
	}
}

func TestShare(t *testing.T) {
	for _, tc := range []struct {
		total, n int
		want     []int
	}{
		{10, 3, []int{4, 3, 3}},
		{3, 4, []int{1, 1, 1, 0}},
		{0, 2, []int{0, 0}},
	} {
		sum := 0
		for i := 0; i < tc.n; i++ {
			got := Share(tc.total, i, tc.n)
			if got != tc.want[i] {
				t.Fatalf("Share(%d, %d, %d) = %d, want %d", tc.total, i, tc.n, got, tc.want[i])
			}
			sum += got
		}
		if sum != tc.total {
			t.Fatalf("Share(%d, _, %d) sums to %d", tc.total, tc.n, sum)
		}
	}
}

package main

import (
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"
)

func TestScaleByName(t *testing.T) {
	for _, name := range []string{"quick", "default", "paper"} {
		s, err := scaleByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if s.Name != name {
			t.Errorf("scale %q has name %q", name, s.Name)
		}
	}
	if _, err := scaleByName("huge"); err == nil {
		t.Error("expected error for unknown scale")
	}
}

func TestPercentileNearestRank(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		rank int // 1-based rank of the expected value; 0 means the empty-input 0
	}{
		{0, 0.5, 0},
		{1, 0.5, 1},
		{1, 0.999, 1},
		{1, 0, 1},
		{160, 0.99, 159}, // ⌈158.4⌉; rounding q·n gives the 158th
		{100, 0.99, 99},  // exact multiples must not round up a rank
		{1000, 0.999, 999},
		{100, 0.07, 7}, // 0.07·100 evaluates to 7.000000000000001
		{100, 0.5, 50},
		{100, 1, 100},
		{7, 0.5, 4},
	} {
		sorted := make([]float64, c.n)
		for i := range sorted {
			sorted[i] = float64(i + 1)
		}
		if got := percentile(sorted, c.q); got != float64(c.rank) {
			t.Errorf("n=%d q=%g: got rank %g, want %d", c.n, c.q, got, c.rank)
		}
	}
}

// TestOpenLoopAbsoluteSchedule drives the pacer with an in-process call. One
// call holds the only processor for several intervals, so the pacer wakes
// late; the slots after it must still fall on the absolute schedule, the
// arrival count must match it, and failed calls must be counted, not dropped.
func TestOpenLoopAbsoluteSchedule(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const (
		rate     = 1000.0
		interval = time.Millisecond
		dur      = 100 * time.Millisecond
		lateSlot = 20
		stall    = 8 * interval
	)
	var (
		mu sync.Mutex
		at = map[int64]time.Duration{}
	)
	begin := time.Now()
	samples, _ := openLoop(rate, dur, nil, func(i int64) bool {
		mu.Lock()
		at[i] = time.Since(begin)
		mu.Unlock()
		if i == lateSlot {
			for t0 := time.Now(); time.Since(t0) < stall; {
			}
		}
		return i%5 != 0
	})

	want := int(dur / interval)
	if n := len(samples); n < want-2 || n > want+2 {
		t.Errorf("%d arrivals, want %d±2 on the absolute schedule", n, want)
	}
	var failed int
	for _, s := range samples {
		if !s.ok {
			failed++
		}
	}
	if wantFailed := (len(samples) + 4) / 5; failed != wantFailed {
		t.Errorf("%d failed arrivals counted, want %d (every fifth call fails)", failed, wantFailed)
	}

	// No slot due during the stall can start before it ends, so some slot
	// after the stalled one must lag by about the stall.
	lag := func(i int64) time.Duration { return at[i] - time.Duration(i)*interval }
	var worst time.Duration
	for i := int64(lateSlot) + 1; i < int64(want); i++ {
		worst = max(worst, lag(i))
	}
	if worst < stall/2 {
		t.Fatalf("no slot after the stalled one lagged more than %v; the stall did not delay the pacer", worst)
	}
	var later []time.Duration
	for i := int64(lateSlot) + int64(stall/interval) + 4; i < int64(want); i++ {
		later = append(later, lag(i))
	}
	sort.Slice(later, func(a, b int) bool { return later[a] < later[b] })
	if med := later[len(later)/2]; med >= stall/2 {
		t.Errorf("slots after the late one lag %v in the median; the late slot shifted the schedule", med)
	}
}

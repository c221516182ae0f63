package main

import (
	"math"
	"os"
	"slices"
	"time"
)

const (
	// sliceLen splits a timed window into slices, each with its own wall
	// time and CPU.
	sliceLen = 250 * time.Millisecond
	// fastShare is the share of a window's slices, fastest first, that the
	// end-to-end figures come from (see window.fast), and of a run's
	// set-ups that setup_s is the median of.
	fastShare = 0.1
	// minPoolOps is the fewest operations the fast slices must hold, so that
	// their p90 has minTail samples beyond it.
	minPoolOps = 10 * minTail
)

// window is what one timed window measured.
type window struct {
	lat       latencies // completion − start, per operation
	attempted int
	failed    int
	// elapsed runs from the window's start to its last completion.
	elapsed time.Duration
	slices  []slice
	// peakMB is the peak RSS of the process that does the work (see timed).
	peakMB float64
}

// slice is one sliceLen of a window: the operations that started in it,
// lat[from:end] for the previous slice's end as from, with the wall time
// and the CPU (this process plus the server child, if any) they took.
type slice struct {
	end     int
	elapsed time.Duration
	cpu     time.Duration
}

// reserved returns an empty window with room for n operations in a window
// of length d, touched so that a measured window's own bookkeeping neither
// grows nor faults pages in while it runs.
func reserved(n int, d time.Duration) window {
	w := window{lat: make(latencies, n), slices: make([]slice, 0, int(d/sliceLen)+2)}
	for i := range w.lat {
		w.lat[i] = 1
	}
	w.lat = w.lat[:0]
	return w
}

// reservedMB is the memory a reserved window holds for its bookkeeping, in
// the unit of peakRSSMB.
func (w window) reservedMB() float64 {
	return float64(4*cap(w.lat)) / (1 << 20)
}

// room is the operations a window of length d holds at the rate warm-up
// window w of length wd ran, with half again to spare.
func room(w window, wd, d time.Duration) int {
	return int(float64(w.attempted) * d.Seconds() / wd.Seconds() * 1.5)
}

// noCPU is the CPU clock of a loop whose slices need none.
func noCPU() time.Duration { return 0 }

// closedLoop runs op back to back for d: each operation starts when the
// previous one completes. i counts operations from 0. Results are added to
// w, cut into slices of sliceLen. cpu is called where each slice begins and
// returns the CPU clock the slices are charged from.
func closedLoop(d time.Duration, w window, cpu func() time.Duration, op func(i int) error) window {
	start := time.Now()
	end := start.Add(d)
	sliceStart, sliceCPU := start, cpu()
	next := start.Add(sliceLen)
	from := len(w.lat)
	for i := 0; ; i++ {
		t0 := time.Now()
		if !t0.Before(next) || !t0.Before(end) {
			if len(w.lat) > from {
				c := cpu()
				w.slices = append(w.slices, slice{end: len(w.lat), elapsed: t0.Sub(sliceStart), cpu: c - sliceCPU})
				from, sliceCPU = len(w.lat), c
			}
			sliceStart, next = t0, t0.Add(sliceLen)
			if !t0.Before(end) {
				w.elapsed += t0.Sub(start)
				return w
			}
		}
		err := op(i)
		t1 := time.Now()
		w.attempted++
		if err != nil {
			w.failed++
		}
		w.lat.add(int64(t1.Sub(t0)))
	}
}

// fast returns the operations of the window's fastest slices, ranked by
// wall time per operation, with the wall time and CPU those slices took:
// the fastest fastShare of the slices, and more until they hold minPoolOps
// operations. ok is false when the whole window holds fewer. Taking the
// fastest slices keeps the figures of a run from following a shared host
// into and out of its slow phases.
func (w window) fast() (lat latencies, elapsed, cpu time.Duration, ok bool) {
	type span struct {
		from int
		slice
	}
	spans := make([]span, len(w.slices))
	from := 0
	for k, s := range w.slices {
		spans[k] = span{from, s}
		from = s.end
	}
	perOp := func(s span) float64 { return float64(s.elapsed) / float64(s.end-s.from) }
	slices.SortStableFunc(spans, func(a, b span) int {
		switch pa, pb := perOp(a), perOp(b); {
		case pa < pb:
			return -1
		case pa > pb:
			return 1
		}
		return 0
	})
	want := int(math.Ceil(fastShare * float64(len(spans))))
	for k, s := range spans {
		if k >= want && len(lat) >= minPoolOps {
			break
		}
		lat = append(lat, w.lat[s.from:s.end]...)
		elapsed += s.elapsed
		cpu += s.cpu
	}
	return lat, elapsed, cpu, len(lat) >= minPoolOps
}

// timed runs loop, which runs one closed-loop window calling the function
// it is given where each slice begins; that function returns the CPU time of
// this process plus child (when child > 0). It also moves both processes
// together to the next of this process's allowed CPUs, so that each slice
// runs on one vCPU and a run samples every vCPU the host gives it, not only
// the one the scheduler left it on. The window it returns carries the peak
// RSS of rssPid over the window.
func timed(child, rssPid int, loop func(cpu func() time.Duration) window) (window, error) {
	cpus, err := allowedCPUs()
	if err != nil {
		return window{}, err
	}
	pids := []int{os.Getpid()}
	if child > 0 {
		pids = append(pids, child)
	}
	var sliceErr error
	pin := func(cpus []int) {
		for _, pid := range pids {
			if err := pinProcess(pid, cpus); err != nil && sliceErr == nil {
				sliceErr = err
			}
		}
	}
	if err := resetPeakRSS(rssPid); err != nil {
		return window{}, err
	}
	k := 0
	w := loop(func() time.Duration {
		pin(cpus[k%len(cpus) : k%len(cpus)+1])
		k++
		c, err := cpuWith(child)
		if err != nil && sliceErr == nil {
			sliceErr = err
		}
		return c
	})
	pin(cpus)
	if sliceErr != nil {
		return window{}, sliceErr
	}
	if w.peakMB, err = peakRSSMB(rssPid); err != nil {
		return window{}, err
	}
	return w, nil
}

// cpuWith returns the CPU time of this process plus that of child, when
// child > 0.
func cpuWith(child int) (time.Duration, error) {
	c := selfCPU()
	if child > 0 {
		cc, err := procCPU(child)
		if err != nil {
			return 0, err
		}
		c += cc
	}
	return c, nil
}

package session

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"github.com/apdeepsense/apdeepsense/internal/core"
	"github.com/apdeepsense/apdeepsense/internal/stats"
	"github.com/apdeepsense/apdeepsense/internal/stream"
	"github.com/apdeepsense/apdeepsense/internal/tensor"
)

// testPredict is a deterministic pure predictor: mean of the window as the
// prediction, squared mean absolute value as the variance — so the input
// scale directly controls the surprisal the gate sees.
func testPredict(_ context.Context, rows []tensor.Vector) ([]core.GaussianVec, error) {
	out := make([]core.GaussianVec, len(rows))
	for i, x := range rows {
		var mean, absMean float64
		for _, v := range x {
			mean += v
			absMean += math.Abs(v)
		}
		mean /= float64(len(x))
		absMean /= float64(len(x))
		out[i] = core.GaussianVec{Mean: []float64{mean}, Var: []float64{absMean * absMean}}
	}
	return out, nil
}

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// fakeClock is an injectable, mutable clock.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// TestIngestMatchesStreamPrimitives: the arena runs the stream primitives
// on per-slot state, so the risk left is slot addressing. Two devices share
// one shard and interleave their samples; one is evicted and re-created
// mid-stream, so its second life runs on a recycled, reset slot. Each
// device is replayed through its own stream.Windower,
// stream.OnlineStandardizer, stats.Welford and stream.Hysteresis, and every
// verdict must match bit for bit: the window cut, the standardized window
// handed to the model, the surprisal z-score, the score and the decision.
func TestIngestMatchesStreamPrimitives(t *testing.T) {
	const channels, length, stride = 3, 8, 4
	cfg := Config{
		Channels: channels, Length: length, Stride: stride,
		Standardize: true, WarmupWindows: 2, DriftThreshold: 0.3,
		EscalateAfter: 2, ReadmitAfter: 2, Shards: 1,
	}
	// The window itself as the mean and 1+x² as the variance, so the
	// surprisal moves with the input.
	predict := func(_ context.Context, rows []tensor.Vector) ([]core.GaussianVec, error) {
		out := make([]core.GaussianVec, len(rows))
		for i, x := range rows {
			vr := make([]float64, len(x))
			for j, v := range x {
				vr[j] = 1 + v*v
			}
			out[i] = core.GaussianVec{Mean: append([]float64(nil), x...), Var: vr}
		}
		return out, nil
	}
	m, err := NewManager(cfg, predict)
	if err != nil {
		t.Fatal(err)
	}
	type device struct {
		win   *stream.Windower
		std   *stream.OnlineStandardizer
		sur   stats.Welford
		latch stream.Hysteresis
	}
	fresh := func() *device {
		win, err := stream.NewWindower(channels, length, stride)
		if err != nil {
			t.Fatal(err)
		}
		std, err := stream.NewOnlineStandardizer(channels * length)
		if err != nil {
			t.Fatal(err)
		}
		return &device{win: win, std: std}
	}
	ids := []string{"fleet/dev0", "fleet/dev1"}
	devs := []*device{fresh(), fresh()}
	cal := DefaultCalibrator()
	ctx := context.Background()
	windows, escalated := 0, 0
	for i := 0; i < 200; i++ {
		if i == 79 {
			// Mid-burst: the slot goes back dirty, with a latched gate.
			if !devs[1].latch.Latched || !m.Evict(ids[1]) {
				t.Fatalf("evict: device resident and latched = %v", devs[1].latch.Latched)
			}
			devs[1] = fresh()
		}
		k := i % 2
		x := float64(i / 2)
		scale := 1.0
		if (i/2)%40 >= 30 {
			scale = 25 // drift bursts
		}
		sample := []float64{scale * math.Sin(x+float64(k)), math.Cos(2 * x), float64(int(x)%7) - 3 + float64(k)}
		v, err := m.Ingest(ctx, ids[k], sample)
		if err != nil {
			t.Fatal(err)
		}
		d := devs[k]
		w, ready, err := d.win.Push(sample)
		if err != nil {
			t.Fatal(err)
		}
		if v.Window != ready {
			t.Fatalf("sample %d (%s): manager window=%v, stream ready=%v", i, ids[k], v.Window, ready)
		}
		if !ready {
			continue
		}
		windows++
		if err := d.std.Observe(w); err != nil {
			t.Fatal(err)
		}
		x0, err := d.std.Apply(w)
		if err != nil {
			t.Fatal(err)
		}
		if !bitsEqual(v.Pred.Mean, x0) {
			t.Fatalf("sample %d (%s): standardized window diverged\n manager %v\n stream  %v", i, ids[k], v.Pred.Mean, x0)
		}
		pred, _ := predict(ctx, []tensor.Vector{x0})
		s, degenerate := stream.MeanStd(pred[0])
		z := 0.0
		warm := d.sur.Count() >= int64(cfg.WarmupWindows)
		if warm {
			z = stream.Z(s, d.sur.Mean(), d.sur.Variance())
		}
		d.sur.Add(s)
		score := cal.Score(z)
		want := d.latch.Step(warm && score >= cfg.DriftThreshold, degenerate, cfg.EscalateAfter, cfg.ReadmitAfter)
		if math.Float64bits(v.MeanStd) != math.Float64bits(s) || math.Float64bits(v.Z) != math.Float64bits(z) ||
			math.Float64bits(v.Score) != math.Float64bits(score) || v.Decision != want {
			t.Fatalf("sample %d (%s): verdict (s %v z %v score %v %v), want (%v %v %v %v)",
				i, ids[k], v.MeanStd, v.Z, v.Score, v.Decision, s, z, score, want)
		}
		if want == stream.Escalate {
			escalated++
		}
	}
	if st := m.Stats(); st.Created != 3 || st.Windows != int64(windows) {
		t.Fatalf("stats %+v: want 3 sessions created and %d windows", st, windows)
	}
	if escalated == 0 || escalated == windows {
		t.Fatalf("%d of %d windows escalated: the gate was not exercised both ways", escalated, windows)
	}
}

// TestWarmupAccepts: windows during warmup never escalate (z is pinned to
// 0) even with an aggressive threshold.
func TestWarmupAccepts(t *testing.T) {
	m, err := NewManager(Config{
		Channels: 1, Length: 2, Stride: 1,
		WarmupWindows: 5, DriftThreshold: 0.5,
	}, testPredict)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	windows := 0
	for i := 0; i < 12; i++ {
		v, err := m.Ingest(ctx, "d", []float64{1})
		if err != nil {
			t.Fatal(err)
		}
		if !v.Window {
			continue
		}
		windows++
		if windows <= 5 {
			if v.Z != 0 {
				t.Fatalf("warmup window %d: z = %v, want 0", windows, v.Z)
			}
			if v.Decision != stream.Accept {
				t.Fatalf("warmup window %d: decision %v", windows, v.Decision)
			}
		}
	}
	if windows < 6 {
		t.Fatalf("only %d windows completed", windows)
	}
}

// TestDriftEscalatesAndReadmits drives the whole surprisal-then-calibrate
// loop: a stable stream warms up and accepts; a variance jump must first
// survive escalate-side hysteresis, then latch; returning to baseline
// readmits after the configured number of clean windows.
func TestDriftEscalatesAndReadmits(t *testing.T) {
	// Threshold 0.6 ~ z 2.4 under DefaultCalibrator: high enough that the
	// stable stream (z ~ 0, score ~ 0.12) never trips it, low enough that
	// the second drifted window still clears it after the device's own
	// surprisal moments have absorbed the first spike.
	m, err := NewManager(Config{
		Channels: 1, Length: 1, Stride: 1, // every sample is a window
		WarmupWindows: 4, DriftThreshold: 0.6,
		EscalateAfter: 2, ReadmitAfter: 2,
	}, testPredict)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	ingest := func(val float64) Verdict {
		t.Helper()
		v, err := m.Ingest(ctx, "d", []float64{val})
		if err != nil {
			t.Fatal(err)
		}
		if !v.Window {
			t.Fatal("expected a window per sample")
		}
		return v
	}
	// Warmup + a few stable windows: surprisal s == 1 throughout.
	for i := 0; i < 8; i++ {
		if v := ingest(1); v.Decision != stream.Accept {
			t.Fatalf("stable window %d escalated (z=%v score=%v)", i, v.Z, v.Score)
		}
	}
	// First drifted window: over budget but under the escalate latch.
	v := ingest(100)
	if v.Decision != stream.Accept {
		t.Fatalf("first drifted window: decision %v before escalateAfter reached", v.Decision)
	}
	if v.Score < 0.6 {
		t.Fatalf("first drifted window: score %v below threshold — drift not detected", v.Score)
	}
	// Second consecutive: latches.
	if v := ingest(100); v.Decision != stream.Escalate {
		t.Fatalf("second drifted window: decision %v, want Escalate", v.Decision)
	}
	// Back to baseline: the first clean window is still latched.
	if v := ingest(1); v.Decision != stream.Escalate {
		t.Fatalf("first clean window after latch: decision %v, want Escalate", v.Decision)
	}
	// Second clean window readmits.
	if v := ingest(1); v.Decision != stream.Accept {
		t.Fatalf("second clean window: decision %v, want Accept", v.Decision)
	}
	st := m.Stats()
	if st.Escalated == 0 || st.Accepted == 0 {
		t.Fatalf("stats did not record both outcomes: %+v", st)
	}
}

// TestDegenerateEscalatesImmediately: a non-finite prediction escalates on
// the spot, bypassing escalate-side hysteresis, and is counted.
func TestDegenerateEscalatesImmediately(t *testing.T) {
	bad := func(_ context.Context, rows []tensor.Vector) ([]core.GaussianVec, error) {
		out := make([]core.GaussianVec, len(rows))
		for i := range rows {
			out[i] = core.GaussianVec{Mean: []float64{0}, Var: []float64{math.NaN()}}
		}
		return out, nil
	}
	m, err := NewManager(Config{
		Channels: 1, Length: 1, Stride: 1,
		EscalateAfter: 5, WarmupWindows: 1,
	}, bad)
	if err != nil {
		t.Fatal(err)
	}
	v, err := m.Ingest(context.Background(), "d", []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	if v.Decision != stream.Escalate || !v.Degenerate {
		t.Fatalf("degenerate prediction: %+v", v)
	}
	if st := m.Stats(); st.NonFinite != 1 {
		t.Fatalf("NonFinite = %d, want 1", st.NonFinite)
	}
}

// TestEvictAndRecreate: explicit eviction frees the session; the next
// ingest starts a fresh one with clean state.
func TestEvictAndRecreate(t *testing.T) {
	m, err := NewManager(Config{Channels: 1, Length: 4, Stride: 4}, testPredict)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := m.Ingest(ctx, "d", []float64{1}); err != nil {
			t.Fatal(err)
		}
	}
	if !m.Evict("d") {
		t.Fatal("evict of resident session returned false")
	}
	if m.Evict("d") {
		t.Fatal("evict of absent session returned true")
	}
	if m.Resident() != 0 {
		t.Fatalf("resident = %d after evict", m.Resident())
	}
	// Recreated session must need a full window again (count reset).
	v, err := m.Ingest(ctx, "d", []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	if v.Window {
		t.Fatal("recreated session completed a window on its first sample")
	}
	st := m.Stats()
	if st.Created != 2 || st.EvictedExplicit != 1 {
		t.Fatalf("stats %+v, want Created=2 EvictedExplicit=1", st)
	}
}

// TestIdleEviction: the timing wheel evicts sessions idle past IdleTimeout
// (within two ticks of slack) and spares recently touched ones.
func TestIdleEviction(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	m, err := NewManager(Config{
		Channels: 1, Length: 4, Stride: 4,
		IdleTimeout: time.Second,
		Clock:       clk.Now,
		Shards:      4,
	}, testPredict)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := m.Ingest(ctx, "old", []float64{1}); err != nil {
		t.Fatal(err)
	}
	clk.Advance(500 * time.Millisecond)
	if _, err := m.Ingest(ctx, "fresh", []float64{1}); err != nil {
		t.Fatal(err)
	}
	// 1.2s after "old"'s last touch: past IdleTimeout + wheel slack for
	// "old", while "fresh" is only 0.7s idle.
	clk.Advance(700 * time.Millisecond)
	evicted := m.AdvanceTo(clk.Now())
	if evicted != 1 {
		t.Fatalf("evicted %d sessions, want 1", evicted)
	}
	if m.Resident() != 1 {
		t.Fatalf("resident = %d, want 1", m.Resident())
	}
	// Touching must keep a session alive indefinitely. Re-touch now (0.7s
	// idle) so no gap in the loop below ever exceeds the timeout.
	if _, err := m.Ingest(ctx, "fresh", []float64{1}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		clk.Advance(400 * time.Millisecond)
		if _, err := m.Ingest(ctx, "fresh", []float64{1}); err != nil {
			t.Fatal(err)
		}
	}
	if n := m.AdvanceTo(clk.Now()); n != 0 {
		t.Fatalf("touched session evicted (n=%d)", n)
	}
	// And going fully idle evicts it too, via the opportunistic sweep in a
	// later ingest on the same shard or an explicit advance.
	clk.Advance(5 * time.Second)
	if n := m.AdvanceTo(clk.Now()); n != 1 {
		t.Fatalf("idle session not evicted (n=%d)", n)
	}
	if st := m.Stats(); st.EvictedIdle != 2 {
		t.Fatalf("EvictedIdle = %d, want 2", st.EvictedIdle)
	}
}

// TestConfigValidation: constructor rejects invalid configurations.
func TestConfigValidation(t *testing.T) {
	ok := Config{Channels: 1, Length: 2, Stride: 1}
	if _, err := NewManager(ok, nil); !errors.Is(err, ErrConfig) {
		t.Fatal("nil predict accepted")
	}
	bad := []Config{
		{Channels: 0, Length: 2, Stride: 1},
		{Channels: 1, Length: 0, Stride: 1},
		{Channels: 1, Length: 2, Stride: 0},
		{Channels: 1, Length: 2, Stride: 1, Shards: 3},
		{Channels: 1, Length: 2, Stride: 1, Shards: 1 << 20},
		{Channels: 1, Length: 2, Stride: 1, DriftThreshold: 1.5},
		{Channels: 1, Length: 2, Stride: 1, DriftThreshold: -0.1},
		{Channels: 1, Length: 2, Stride: 1, WarmupWindows: -1},
		{Channels: 1, Length: 2, Stride: 1, EscalateAfter: -2},
		{Channels: 1, Length: 2, Stride: 1, IdleTimeout: -time.Second},
	}
	for i, cfg := range bad {
		if _, err := NewManager(cfg, testPredict); !errors.Is(err, ErrConfig) {
			t.Fatalf("bad config %d accepted: %+v", i, cfg)
		}
	}
	m, err := NewManager(ok, testPredict)
	if err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	if _, err := m.Ingest(context.Background(), "", []float64{1}); !errors.Is(err, ErrConfig) {
		t.Fatal("empty device ID accepted")
	}
	if _, err := m.Ingest(context.Background(), "d", []float64{1, 2}); !errors.Is(err, ErrConfig) {
		t.Fatal("wrong channel count accepted")
	}
}

// TestCalibratorFit: PAV produces a monotone fit, pools violators, and
// Score interpolates and clamps.
func TestCalibratorFit(t *testing.T) {
	// Non-monotone targets: PAV must pool them into a nondecreasing fit.
	c, err := FitIsotonic(
		[]float64{0, 1, 2, 3, 4},
		[]float64{0.1, 0.5, 0.3, 0.8, 0.7},
	)
	if err != nil {
		t.Fatal(err)
	}
	_, ys := c.Breakpoints()
	for i := 1; i < len(ys); i++ {
		if ys[i] < ys[i-1] {
			t.Fatalf("fit not monotone: %v", ys)
		}
	}
	// The pooled pairs average: (0.5,0.3)->0.4, (0.8,0.7)->0.75.
	if math.Abs(ys[1]-0.4) > 1e-12 || math.Abs(ys[3]-0.75) > 1e-12 {
		t.Fatalf("pooled levels wrong: %v", ys)
	}
	// Clamping and interpolation.
	if got := c.Score(-10); got != ys[0] {
		t.Fatalf("below-range score %v, want %v", got, ys[0])
	}
	if got := c.Score(10); got != ys[len(ys)-1] {
		t.Fatalf("above-range score %v, want %v", got, ys[len(ys)-1])
	}
	mid := c.Score(0.5)
	if mid <= ys[0] || mid >= ys[1] {
		t.Fatalf("interpolated score %v outside (%v, %v)", mid, ys[0], ys[1])
	}
	if got := c.Score(math.NaN()); got != 1 {
		t.Fatalf("NaN z score %v, want 1", got)
	}
	// Validation.
	if _, err := FitIsotonic([]float64{0}, []float64{0.5}); !errors.Is(err, ErrConfig) {
		t.Fatal("single point accepted")
	}
	if _, err := FitIsotonic([]float64{0, 1}, []float64{0.5, 1.5}); !errors.Is(err, ErrConfig) {
		t.Fatal("out-of-range target accepted")
	}
	if _, err := FitIsotonic([]float64{0, math.NaN()}, []float64{0.1, 0.2}); !errors.Is(err, ErrConfig) {
		t.Fatal("NaN z accepted")
	}
	// DefaultCalibrator is monotone over its whole range and hits the 0.9
	// threshold near z = 4.2.
	d := DefaultCalibrator()
	prev := -1.0
	for z := -8.0; z <= 10; z += 0.1 {
		s := d.Score(z)
		if s < prev {
			t.Fatalf("default calibrator not monotone at z=%v", z)
		}
		prev = s
	}
	if d.Score(4.0) >= 0.9 || d.Score(4.5) < 0.9 {
		t.Fatalf("default calibrator threshold drifted: S(4)=%v S(4.5)=%v", d.Score(4.0), d.Score(4.5))
	}
}

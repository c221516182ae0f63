package serve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/apdeepsense/apdeepsense/internal/core"
	"github.com/apdeepsense/apdeepsense/internal/nn"
	"github.com/apdeepsense/apdeepsense/internal/obs"
	"github.com/apdeepsense/apdeepsense/internal/tensor"
)

// echoFlush doubles each request, recording batch sizes.
func echoFlush(sizes *[]int, mu *sync.Mutex) func([]int) ([]int, error) {
	return func(reqs []int) ([]int, error) {
		if mu != nil {
			mu.Lock()
			*sizes = append(*sizes, len(reqs))
			mu.Unlock()
		}
		out := make([]int, len(reqs))
		for i, r := range reqs {
			out[i] = 2 * r
		}
		return out, nil
	}
}

func mustNew[Req, Res any](t *testing.T, cfg Config, flush func([]Req) ([]Res, error)) *Coalescer[Req, Res] {
	t.Helper()
	c, err := New(cfg, flush)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = c.Close(ctx)
	})
	return c
}

func TestConfigValidation(t *testing.T) {
	if _, err := New[int, int](Config{}, nil); !errors.Is(err, ErrConfig) {
		t.Errorf("nil flush err = %v, want ErrConfig", err)
	}
	bad := []Config{
		{MaxBatch: -1},
		{MaxBatch: 8, QueueDepth: 4},
	}
	for i, cfg := range bad {
		if _, err := New(cfg, echoFlush(nil, nil)); !errors.Is(err, ErrConfig) {
			t.Errorf("config %d err = %v, want ErrConfig", i, err)
		}
	}
}

func TestDoConcurrent(t *testing.T) {
	// QueueDepth must cover all callers at once: every caller can enqueue
	// before the dispatcher runs, and backpressure is not under test here.
	c := mustNew(t, Config{MaxBatch: 8, QueueDepth: 256}, echoFlush(nil, nil))
	const n = 200
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got, err := c.Do(context.Background(), i)
			if err != nil {
				errs <- err
				return
			}
			if got != 2*i {
				errs <- fmt.Errorf("Do(%d) = %d, want %d", i, got, 2*i)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestDoBatchOrderAndSplit(t *testing.T) {
	// MaxBatch 4 forces a 10-row DoBatch to split across flushes; results
	// must still come back in submission order.
	var sizes []int
	var mu sync.Mutex
	c := mustNew(t, Config{MaxBatch: 4, QueueDepth: 64}, echoFlush(&sizes, &mu))
	reqs := make([]int, 10)
	for i := range reqs {
		reqs[i] = i
	}
	out, err := c.DoBatch(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, got := range out {
		if got != 2*i {
			t.Errorf("out[%d] = %d, want %d", i, got, 2*i)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	for _, s := range sizes {
		if s > 4 {
			t.Errorf("flush of %d rows exceeds MaxBatch 4", s)
		}
	}
	if out, err := c.DoBatch(context.Background(), nil); err != nil || out != nil {
		t.Errorf("empty DoBatch = (%v, %v), want (nil, nil)", out, err)
	}
}

// blockedCoalescer bundles a coalescer whose flushes signal on started and
// then block until release is closed, so tests can hold the dispatcher busy
// while they fill the queue.
type blockedCoalescer struct {
	c       *Coalescer[int, int]
	started chan struct{} // one receive per flush call that began
	release chan struct{}
	flushed atomic.Int64 // rows that made it through a flush
}

func newBlockedCoalescer(t *testing.T, cfg Config) *blockedCoalescer {
	t.Helper()
	b := &blockedCoalescer{
		started: make(chan struct{}, 64),
		release: make(chan struct{}),
	}
	b.c = mustNew(t, cfg, func(reqs []int) ([]int, error) {
		b.started <- struct{}{}
		<-b.release
		b.flushed.Add(int64(len(reqs)))
		out := make([]int, len(reqs))
		for i, r := range reqs {
			out[i] = 2 * r
		}
		return out, nil
	})
	return b
}

// occupyDispatcher issues one request and waits until its flush has started,
// so the dispatcher is provably stuck in the flush function.
func (b *blockedCoalescer) occupyDispatcher(t *testing.T, wg *sync.WaitGroup) {
	t.Helper()
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := b.c.Do(context.Background(), 0); err != nil {
			t.Errorf("occupying Do(0): %v", err)
		}
	}()
	select {
	case <-b.started:
	case <-time.After(5 * time.Second):
		t.Fatal("flush never started")
	}
}

// fillQueue occupies the dispatcher and then fills the queue to depth.
func (b *blockedCoalescer) fillQueue(t *testing.T, depth int) *sync.WaitGroup {
	t.Helper()
	var wg sync.WaitGroup
	b.occupyDispatcher(t, &wg)
	for i := 1; i <= depth; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := b.c.Do(context.Background(), i); err != nil {
				t.Errorf("queued Do(%d): %v", i, err)
			}
		}(i)
	}
	waitFor(t, func() bool { return b.c.Depth() == depth })
	return &wg
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in 5s")
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func TestQueueFullBackpressure(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	b := newBlockedCoalescer(t, Config{MaxBatch: 4, QueueDepth: 4, Metrics: m})
	wg := b.fillQueue(t, 4)

	if _, err := b.c.Do(context.Background(), 99); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("Do on full queue err = %v, want ErrQueueFull", err)
	}
	// All-or-nothing batch admission: 2 rows don't fit either.
	if _, err := b.c.DoBatch(context.Background(), []int{1, 2}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("DoBatch on full queue err = %v, want ErrQueueFull", err)
	}
	close(b.release)
	wg.Wait()
	if got := m.rejected.Value(); got != 2 {
		t.Errorf("rejected counter = %v, want 2", got)
	}
	// The occupying row flushed alone on an idle dispatcher; the full queue
	// behind it flushed on size the moment that flush returned.
	if idle, size := m.flushes.With(ReasonIdle).Value(), m.flushes.With(ReasonSize).Value(); idle != 1 || size != 1 {
		t.Errorf("flushes idle=%v size=%v, want 1 and 1", idle, size)
	}
	// After the drain, the queue accepts again.
	if got, err := b.c.Do(context.Background(), 21); err != nil || got != 42 {
		t.Errorf("Do after drain = (%d, %v), want (42, nil)", got, err)
	}
}

func TestContextCancellationMidQueue(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	b := newBlockedCoalescer(t, Config{MaxBatch: 8, QueueDepth: 8, Metrics: m})

	var wg sync.WaitGroup
	b.occupyDispatcher(t, &wg)

	// Queue one request and cancel it while it waits.
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := b.c.Do(ctx, 1)
		done <- err
	}()
	waitFor(t, func() bool { return b.c.Depth() == 1 })
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Do err = %v, want context.Canceled", err)
	}

	// An expired context is rejected before enqueueing at all.
	expired, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel2()
	if _, err := b.c.Do(expired, 2); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired Do err = %v, want context.DeadlineExceeded", err)
	}

	close(b.release)
	wg.Wait()
	// Only the occupying request may reach the flush function: the
	// cancelled row must be dropped at flush assembly.
	waitFor(t, func() bool { return m.cancelled.Value() == 1 })
	if got := b.flushed.Load(); got != 1 {
		t.Errorf("flushed rows = %d, want 1 (cancelled row must be dropped)", got)
	}
}

func TestEagerIdleFlushIsImmediate(t *testing.T) {
	// A lone request flushes as soon as the dispatcher is free: no timer
	// holds a partial batch back.
	m := NewMetrics(obs.NewRegistry())
	c := mustNew(t, Config{MaxBatch: 64, Metrics: m}, echoFlush(nil, nil))
	done := make(chan error, 1)
	go func() {
		_, err := c.Do(context.Background(), 1)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("idle flush did not happen (request stuck in the queue)")
	}
	if got := m.flushes.With(ReasonIdle).Value(); got != 1 {
		t.Errorf("idle flushes = %v, want 1", got)
	}
}

func TestCloseDrainsQueue(t *testing.T) {
	b := newBlockedCoalescer(t, Config{MaxBatch: 4, QueueDepth: 16})
	wg := b.fillQueue(t, 8)

	closed := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		closed <- b.c.Close(ctx)
	}()
	// Intake stops immediately even while the drain is still blocked. The
	// probe carries a short deadline: until Close lands it would otherwise
	// enqueue and wait behind the stuck flush; once cancelled it is dropped
	// at flush assembly and never reaches the flush function.
	waitFor(t, func() bool {
		ctx, cancel := context.WithTimeout(context.Background(), 200*time.Microsecond)
		defer cancel()
		_, err := b.c.Do(ctx, 100)
		return errors.Is(err, ErrClosed)
	})
	close(b.release)
	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}
	wg.Wait() // every queued request completed, none dropped
	if got := b.flushed.Load(); got != 9 {
		t.Errorf("flushed rows = %d, want 9 (drain must complete queued work)", got)
	}
	// Idempotent.
	if err := b.c.Close(context.Background()); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

func TestCloseHonorsContext(t *testing.T) {
	b := newBlockedCoalescer(t, Config{MaxBatch: 4, QueueDepth: 4})
	var wg sync.WaitGroup
	b.occupyDispatcher(t, &wg)
	defer func() {
		close(b.release) // let the stuck flush finish so Cleanup can drain
		wg.Wait()
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	if err := b.c.Close(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Close with stuck flush err = %v, want DeadlineExceeded", err)
	}
}

func TestFlushErrorReachesEveryCaller(t *testing.T) {
	boom := errors.New("boom")
	c := mustNew(t, Config{MaxBatch: 4}, func(reqs []int) ([]int, error) {
		return nil, boom
	})
	if _, err := c.Do(context.Background(), 1); !errors.Is(err, boom) {
		t.Errorf("Do err = %v, want boom", err)
	}
}

func TestFlushPanicBecomesError(t *testing.T) {
	c := mustNew(t, Config{MaxBatch: 4}, func(reqs []int) ([]int, error) {
		panic("kernel exploded")
	})
	_, err := c.Do(context.Background(), 1)
	if err == nil || !strings.Contains(err.Error(), "kernel exploded") {
		t.Fatalf("Do err = %v, want panic converted to error", err)
	}
	// The dispatcher must survive the panic and serve the next request.
	if _, err := c.Do(context.Background(), 2); err == nil || !strings.Contains(err.Error(), "kernel exploded") {
		t.Fatalf("second Do err = %v, want panic converted to error", err)
	}
}

func TestFlushResultCountMismatch(t *testing.T) {
	c := mustNew(t, Config{MaxBatch: 4}, func(reqs []int) ([]int, error) {
		return make([]int, len(reqs)+1), nil
	})
	if _, err := c.Do(context.Background(), 1); err == nil || !strings.Contains(err.Error(), "results") {
		t.Fatalf("Do err = %v, want result-count error", err)
	}
}

// TestPredictBitIdentity is the coalescing correctness contract: every row
// coming back through the coalescer — whatever batch it happened to share a
// flush with — must be bit-identical to a direct per-request Propagate-based
// Predict on the same input.
func TestPredictBitIdentity(t *testing.T) {
	net, err := nn.New(nn.Config{
		InputDim: 5, Hidden: []int{32, 32}, OutputDim: 3,
		Activation: nn.ActTanh, OutputActivation: nn.ActIdentity,
		KeepProb: 0.9, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	est, err := core.NewApDeepSense(net, core.Options{}, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewPredict(est, Config{MaxBatch: 16, QueueDepth: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close(context.Background())

	rng := rand.New(rand.NewSource(4))
	const n = 128
	inputs := make([]tensor.Vector, n)
	want := make([]core.GaussianVec, n)
	for i := range inputs {
		x := make(tensor.Vector, net.InputDim())
		for j := range x {
			x[j] = rng.NormFloat64()
		}
		inputs[i] = x
		if want[i], err = est.Predict(x); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got, err := c.Do(context.Background(), inputs[i])
			if err != nil {
				t.Errorf("input %d: %v", i, err)
				return
			}
			if !got.Mean.Equal(want[i].Mean, 0) || !got.Var.Equal(want[i].Var, 0) {
				t.Errorf("input %d: coalesced result differs from direct Predict (mean %v vs %v)",
					i, got.Mean, want[i].Mean)
			}
		}(i)
	}
	wg.Wait()
}

// TestStressRandomCancellation is the race-mode soak (run with -race via
// tools/check.sh): hundreds of concurrent callers against a tiny queue, a
// slow flush, and random mid-queue cancellations. Every call must resolve to
// exactly one of {result, ErrQueueFull, context error}; nothing may hang,
// surviving results must be correct, and the flush function must never be
// entered while another call of it is still running.
func TestStressRandomCancellation(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewMetrics(reg)
	var inFlush atomic.Int32
	c := mustNew(t, Config{MaxBatch: 8, QueueDepth: 32, Metrics: m}, func(reqs []int) ([]int, error) {
		if n := inFlush.Add(1); n != 1 {
			t.Errorf("flush entered with %d calls in flight, want 1", n)
		}
		defer inFlush.Add(-1)
		time.Sleep(50 * time.Microsecond) // hold the dispatcher busy so the queue builds
		out := make([]int, len(reqs))
		for i, r := range reqs {
			out[i] = 2 * r
		}
		return out, nil
	})

	const callers = 300
	var ok, full, cancelled atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(i)))
			for rep := 0; rep < 20; rep++ {
				ctx := context.Background()
				cancel := context.CancelFunc(func() {})
				if rng.Intn(3) == 0 {
					// A deadline somewhere between "instant" and "comfortable".
					ctx, cancel = context.WithTimeout(ctx, time.Duration(rng.Intn(300))*time.Microsecond)
				}
				got, err := c.Do(ctx, i)
				cancel()
				switch {
				case err == nil:
					if got != 2*i {
						t.Errorf("Do(%d) = %d", i, got)
					}
					ok.Add(1)
				case errors.Is(err, ErrQueueFull):
					full.Add(1)
				case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
					cancelled.Add(1)
				default:
					t.Errorf("unexpected error: %v", err)
				}
			}
		}(i)
	}
	wg.Wait()
	t.Logf("stress: ok=%d full=%d cancelled=%d (metrics: rejected=%v dropped=%v)",
		ok.Load(), full.Load(), cancelled.Load(), m.rejected.Value(), m.cancelled.Value())
	if ok.Load() == 0 {
		t.Error("stress run completed no successful requests")
	}
	// The coalescer must drain cleanly after the storm.
	ctx, cancelCtx := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelCtx()
	if err := c.Close(ctx); err != nil {
		t.Fatalf("Close after stress: %v", err)
	}
}

// TestQueueFullRetryAfter pins the typed rejection: a full queue returns a
// *QueueFullError that matches ErrQueueFull, reports the observed depth, and
// carries a retry budget — the 1ms floor before any flush has calibrated the
// rate, the EWMA-priced drain estimate afterwards (checked deterministically
// via observeFlush below, not wall clocks).
func TestQueueFullRetryAfter(t *testing.T) {
	b := newBlockedCoalescer(t, Config{MaxBatch: 4, QueueDepth: 4})
	wg := b.fillQueue(t, 4)

	_, err := b.c.Do(context.Background(), 99)
	var qf *QueueFullError
	if !errors.As(err, &qf) {
		t.Fatalf("Do on full queue err = %T %v, want *QueueFullError", err, err)
	}
	if !errors.Is(err, ErrQueueFull) {
		t.Error("QueueFullError does not match ErrQueueFull under errors.Is")
	}
	if qf.Depth != 4 {
		t.Errorf("QueueFullError.Depth = %d, want 4", qf.Depth)
	}
	// No flush has completed: the hint is the 1ms floor.
	if qf.RetryAfter != time.Millisecond {
		t.Errorf("uncalibrated RetryAfter = %v, want the 1ms floor", qf.RetryAfter)
	}
	if hint, ok := RetryAfter(err); !ok || hint != qf.RetryAfter {
		t.Errorf("RetryAfter(err) = (%v, %v), want (%v, true)", hint, ok, qf.RetryAfter)
	}
	if _, ok := RetryAfter(nil); ok {
		t.Error("RetryAfter(nil) reported a hint")
	}
	if _, ok := RetryAfter(ErrClosed); ok {
		t.Error("RetryAfter(ErrClosed) reported a hint")
	}
	close(b.release)
	wg.Wait()
}

// TestRetryAfterRateMath drives the EWMA directly so the drain-estimate
// arithmetic is pinned without depending on scheduler timing.
func TestRetryAfterRateMath(t *testing.T) {
	c := mustNew(t, Config{MaxBatch: 4, QueueDepth: 16}, func(reqs []int) ([]int, error) { return reqs, nil })

	if got := c.retryAfter(8); got != time.Millisecond {
		t.Errorf("retryAfter before calibration = %v, want the 1ms floor", got)
	}
	c.observeFlush(10*time.Millisecond, 10) // first sample: 1ms/row
	if got := c.retryAfter(8); got != 8*time.Millisecond {
		t.Errorf("retryAfter(8) after 1ms/row = %v, want 8ms", got)
	}
	c.observeFlush(30*time.Millisecond, 10) // 3ms/row sample → EWMA 1.4ms/row
	if got := c.retryAfter(10); got != 14*time.Millisecond {
		t.Errorf("retryAfter(10) after EWMA update = %v, want 14ms", got)
	}
	// The floor keeps the hint meaningful for tiny queues and fast models.
	if got := c.retryAfter(0); got != time.Millisecond {
		t.Errorf("retryAfter(0) = %v, want the 1ms floor", got)
	}
	// Degenerate observations must not poison the estimate.
	c.observeFlush(0, 4)
	c.observeFlush(time.Millisecond, 0)
	if got := c.retryAfter(10); got != 14*time.Millisecond {
		t.Errorf("retryAfter(10) after degenerate samples = %v, want 14ms", got)
	}
}

// TestDoBatchTooLarge: a request with more rows than QueueDepth can never be
// admitted, so it must fail at once with ErrBatchTooLarge — not with a
// retryable queue-full rejection — while a batch of exactly QueueDepth rows
// is still served.
func TestDoBatchTooLarge(t *testing.T) {
	m := NewMetrics(obs.NewRegistry())
	c := mustNew(t, Config{MaxBatch: 4, QueueDepth: 8, Metrics: m}, echoFlush(nil, nil))
	_, err := c.DoBatch(context.Background(), make([]int, 9))
	if !errors.Is(err, ErrBatchTooLarge) {
		t.Fatalf("DoBatch(9 rows) err = %v, want ErrBatchTooLarge", err)
	}
	if errors.Is(err, ErrQueueFull) {
		t.Error("oversized batch matches ErrQueueFull; it is not retryable")
	}
	if hint, ok := RetryAfter(err); ok {
		t.Errorf("oversized batch carries retry hint %v", hint)
	}
	if got := m.rejected.Value(); got != 0 {
		t.Errorf("rejected counter = %v, want 0 (no backpressure happened)", got)
	}
	if out, err := c.DoBatch(context.Background(), make([]int, 8)); err != nil || len(out) != 8 {
		t.Errorf("DoBatch(8 rows) = (%d results, %v), want 8 and nil", len(out), err)
	}
}

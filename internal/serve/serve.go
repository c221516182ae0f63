// Package serve is the dynamic micro-batching layer between concurrent
// request handlers and the batched moment-propagation fast path: a request
// coalescer in the Triton/TF-Serving dynamic-batching mold. Concurrent
// predict requests enqueue into one bounded FIFO; a single dispatcher
// goroutine cuts it into batches and runs each flush itself. A batch is cut
// when the queue reaches MaxBatch, when the dispatcher is idle (after a
// short linger that lets concurrent arrivals join), or when Close drains the
// queue. No timer exists: an unloaded server adds no batching latency, and
// under load batches form from the rows that arrive while a flush runs.
//
// The coalescer guarantees:
//
//   - results are demultiplexed back to callers in request order within a
//     flush, bit-identical to running each request alone (the flush function
//     receives the rows exactly as submitted; core.PropagateBatch rows are
//     bit-identical to per-row Propagate);
//   - per-request context cancellation: a caller whose ctx ends returns
//     immediately, and its queued row is dropped before the flush;
//   - bounded memory: at most QueueDepth requests wait at once, and
//     Do/DoBatch fail fast with ErrQueueFull beyond that (backpressure, not
//     buffering) — HTTP servers map this to 429;
//   - graceful drain: Close stops intake, flushes everything queued, and
//     waits for the flush in progress, bounded by the caller's context.
package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

var (
	// ErrQueueFull is the class of every queue-full rejection: errors.Is
	// matches it on the *QueueFullError values Do/DoBatch actually return —
	// explicit backpressure for the caller to surface (HTTP 429).
	ErrQueueFull = errors.New("serve: queue full")
	// ErrBatchTooLarge is returned (wrapped) by DoBatch for a request with
	// more rows than QueueDepth. Such a request can never be admitted, so
	// it is not a queue-full rejection and carries no retry hint (HTTP 413).
	ErrBatchTooLarge = errors.New("serve: batch exceeds queue depth")
	// ErrClosed is returned by Do/DoBatch after Close has begun.
	ErrClosed = errors.New("serve: coalescer closed")
	// ErrConfig is returned (wrapped) by New for invalid configurations.
	ErrConfig = errors.New("serve: invalid configuration")
)

// QueueFullError is the typed queue-full rejection: it matches ErrQueueFull
// under errors.Is and carries a retry budget — how long the caller should
// back off before the queue has plausibly drained. The hint is the current
// queue depth times the coalescer's observed per-row flush time (an EWMA
// over recent flushes), never below 1ms, so a lightly loaded coalescer hints
// milliseconds while a deeply backed-up one hints its true drain horizon.
// HTTP servers surface it as a Retry-After header on 429.
type QueueFullError struct {
	// Depth is the queue depth observed at rejection.
	Depth int
	// RetryAfter estimates the time for the present queue to drain.
	RetryAfter time.Duration
}

func (e *QueueFullError) Error() string {
	return fmt.Sprintf("serve: queue full (depth %d, retry after %v)", e.Depth, e.RetryAfter)
}

// Is makes errors.Is(err, ErrQueueFull) hold for every QueueFullError, so
// the typed rejection slots into existing sentinel checks unchanged.
func (e *QueueFullError) Is(target error) bool { return target == ErrQueueFull }

// RetryAfter extracts the retry budget from a queue-full rejection anywhere
// in err's chain. ok is false for every other error (including nil).
func RetryAfter(err error) (hint time.Duration, ok bool) {
	var qf *QueueFullError
	if errors.As(err, &qf) {
		return qf.RetryAfter, true
	}
	return 0, false
}

// Flush reasons recorded by Metrics.Flushes.
const (
	// ReasonSize: the queue reached MaxBatch.
	ReasonSize = "size"
	// ReasonIdle: the dispatcher was free and the queue stopped growing.
	ReasonIdle = "idle"
	// ReasonDrain: Close is flushing the remaining queue.
	ReasonDrain = "drain"
)

// Config tunes a Coalescer. The zero value selects the defaults noted on
// each field.
type Config struct {
	// MaxBatch is the flush size threshold: a batch never exceeds it, and
	// reaching it triggers an immediate flush. Defaults to 64 (the knee of
	// the PropagateBatch speedup curve on the reference net).
	MaxBatch int
	// QueueDepth bounds the number of requests waiting to be batched.
	// Enqueueing beyond it fails with ErrQueueFull. Defaults to 4×MaxBatch.
	QueueDepth int
	// Metrics, when non-nil, receives queue/batch/flush observations (see
	// NewMetrics). A nil Metrics costs nothing on the hot path.
	Metrics *Metrics
}

func (c *Config) fillDefaults() error {
	if c.MaxBatch == 0 {
		c.MaxBatch = 64
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 4 * c.MaxBatch
	}
	switch {
	case c.MaxBatch < 1:
		return fmt.Errorf("MaxBatch %d: %w", c.MaxBatch, ErrConfig)
	case c.QueueDepth < c.MaxBatch:
		return fmt.Errorf("QueueDepth %d < MaxBatch %d: %w", c.QueueDepth, c.MaxBatch, ErrConfig)
	}
	return nil
}

// result is one demultiplexed outcome.
type result[Res any] struct {
	val Res
	err error
}

// call is one queued request: the caller's context, the request row, and a
// 1-buffered channel the flush outcome is delivered on (buffered so delivery
// never blocks on a caller that already gave up).
type call[Req, Res any] struct {
	ctx context.Context
	req Req
	res chan result[Res]
	enq time.Time
}

// Coalescer enqueues concurrent requests and flushes them in batches through
// a single flush function. Create with New; all methods are safe for
// concurrent use.
type Coalescer[Req, Res any] struct {
	cfg   Config
	flush func([]Req) ([]Res, error)

	mu     sync.Mutex
	queue  []*call[Req, Res]
	closed bool

	kick    chan struct{} // dispatcher wakeup (1-buffered, coalescing)
	drained chan struct{} // closed when the dispatcher has exited

	// rowNanos is an EWMA of per-row flush wall time (float64 bits), updated
	// after every flush; it prices the RetryAfter hint on QueueFullError.
	// Zero until the first flush completes.
	rowNanos atomic.Uint64
}

// New builds a Coalescer whose batches are executed by flush. The flush
// function receives between 1 and MaxBatch requests in submission order and
// must return one result per request (a short or over-long result slice is
// reported to every caller in the batch as an error). It is never called
// concurrently with itself.
func New[Req, Res any](cfg Config, flush func([]Req) ([]Res, error)) (*Coalescer[Req, Res], error) {
	if flush == nil {
		return nil, fmt.Errorf("nil flush function: %w", ErrConfig)
	}
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	c := &Coalescer[Req, Res]{
		cfg:     cfg,
		flush:   flush,
		kick:    make(chan struct{}, 1),
		drained: make(chan struct{}),
	}
	go c.dispatch()
	return c, nil
}

// Do enqueues one request and blocks until its batch has been flushed, the
// context ends, or the request is rejected. It returns ErrQueueFull when the
// queue is at QueueDepth and ErrClosed after Close has begun; a context
// error means the caller stopped waiting (the queued row is dropped before
// it reaches the flush function).
func (c *Coalescer[Req, Res]) Do(ctx context.Context, req Req) (Res, error) {
	var zero Res
	if err := ctx.Err(); err != nil {
		return zero, err
	}
	it := &call[Req, Res]{ctx: ctx, req: req, res: make(chan result[Res], 1), enq: time.Now()}
	if err := c.enqueue([]*call[Req, Res]{it}); err != nil {
		return zero, err
	}
	select {
	case r := <-it.res:
		return r.val, r.err
	case <-ctx.Done():
		return zero, ctx.Err()
	}
}

// DoBatch enqueues a multi-row request through the same flush pipeline and
// blocks until every row has a result. Admission is all-or-nothing: if the
// rows don't fit in the queue, nothing is enqueued and ErrQueueFull is
// returned, so a large batch cannot partially starve single requests. A
// request with more rows than QueueDepth could never fit and fails with
// ErrBatchTooLarge instead. Rows may be split across flushes (each at most
// MaxBatch) and are returned in submission order.
func (c *Coalescer[Req, Res]) DoBatch(ctx context.Context, reqs []Req) ([]Res, error) {
	if len(reqs) == 0 {
		return nil, nil
	}
	if len(reqs) > c.cfg.QueueDepth {
		return nil, fmt.Errorf("%w (%d rows, queue depth %d)", ErrBatchTooLarge, len(reqs), c.cfg.QueueDepth)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	items := make([]*call[Req, Res], len(reqs))
	now := time.Now()
	for i, r := range reqs {
		items[i] = &call[Req, Res]{ctx: ctx, req: r, res: make(chan result[Res], 1), enq: now}
	}
	if err := c.enqueue(items); err != nil {
		return nil, err
	}
	out := make([]Res, len(items))
	for i, it := range items {
		select {
		case r := <-it.res:
			if r.err != nil {
				return nil, r.err
			}
			out[i] = r.val
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return out, nil
}

// enqueue admits items all-or-nothing and wakes the dispatcher.
func (c *Coalescer[Req, Res]) enqueue(items []*call[Req, Res]) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClosed
	}
	depth := len(c.queue)
	if depth+len(items) > c.cfg.QueueDepth {
		c.mu.Unlock()
		c.cfg.Metrics.reject()
		return &QueueFullError{Depth: depth, RetryAfter: c.retryAfter(depth)}
	}
	c.queue = append(c.queue, items...)
	depth = len(c.queue)
	c.mu.Unlock()
	c.cfg.Metrics.depth(depth)
	c.wake()
	return nil
}

// retryAfter prices a queue-full rejection: the time for depth queued rows
// to drain at the observed per-row flush rate, floored at 1ms (which is also
// the whole hint before any flush has completed).
func (c *Coalescer[Req, Res]) retryAfter(depth int) time.Duration {
	d := time.Duration(math.Float64frombits(c.rowNanos.Load()) * float64(depth))
	if d < time.Millisecond {
		d = time.Millisecond
	}
	return d
}

// observeFlush folds one flush's per-row wall time into the EWMA behind
// retryAfter. α = 0.2: a few flushes re-center the estimate after a load or
// batch-shape shift, while single outlier flushes barely move it. Only the
// dispatcher writes rowNanos; the atomic lets enqueuers read it unlocked.
func (c *Coalescer[Req, Res]) observeFlush(dur time.Duration, rows int) {
	if rows <= 0 || dur <= 0 {
		return
	}
	sample := float64(dur.Nanoseconds()) / float64(rows)
	if prev := math.Float64frombits(c.rowNanos.Load()); prev > 0 {
		sample = 0.8*prev + 0.2*sample
	}
	c.rowNanos.Store(math.Float64bits(sample))
}

// wake nudges the dispatcher; the 1-buffered channel coalesces bursts.
func (c *Coalescer[Req, Res]) wake() {
	select {
	case c.kick <- struct{}{}:
	default:
	}
}

// Close stops intake (subsequent Do/DoBatch return ErrClosed), flushes every
// queued request, and waits — bounded by ctx — for the flush in progress to
// finish. Requests already enqueued complete normally; this is what lets an
// HTTP server drain on SIGTERM instead of dropping work. Close is
// idempotent; every call waits for the same drain.
func (c *Coalescer[Req, Res]) Close(ctx context.Context) error {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	c.wake()
	select {
	case <-c.drained:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: drain interrupted: %w", ctx.Err())
	}
}

// Depth reports the number of requests currently waiting to be batched.
func (c *Coalescer[Req, Res]) Depth() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.queue)
}

// dispatch is the coalescer's one goroutine: it waits for work, cuts a
// batch, runs the flush itself, and repeats until Close has begun and the
// queue is empty. A batch is popped only when no flush is running, so every
// waiting request stays in the queue until the moment its flush starts —
// which is what makes the QueueDepth backpressure bound exact — and a row
// with fewer than MaxBatch rows ahead of it waits at most for the flush in
// progress before its own starts.
func (c *Coalescer[Req, Res]) dispatch() {
	defer close(c.drained)
	for {
		c.mu.Lock()
		if len(c.queue) == 0 {
			closed := c.closed
			c.mu.Unlock()
			if closed {
				return
			}
			<-c.kick
			continue
		}
		if !c.closed && len(c.queue) < c.cfg.MaxBatch {
			c.lingerLocked()
		}
		reason := ReasonIdle
		switch {
		case c.closed:
			reason = ReasonDrain
		case len(c.queue) >= c.cfg.MaxBatch:
			reason = ReasonSize
		}
		batch := c.take()
		c.mu.Unlock()
		c.cfg.Metrics.flushed(reason)
		c.runBatch(batch)
	}
}

// lingerLocked yields the processor while the queue keeps growing, so
// concurrent enqueuers join the batch about to be cut. Without it an idle
// flush takes whatever happens to be queued right now — under a concurrent
// burst that is often just the first arrival, with its peers runnable but
// not yet scheduled (acute on few-core machines, where the flush then
// monopolizes the processor and every row flushes alone). Each extra round
// requires at least one new row, bounding the loop by MaxBatch; a stable
// queue exits after one yield, so an isolated request flushes with no wait.
// Caller holds c.mu; it is released across each yield.
func (c *Coalescer[Req, Res]) lingerLocked() {
	for {
		prev := len(c.queue)
		c.mu.Unlock()
		runtime.Gosched()
		c.mu.Lock()
		if n := len(c.queue); n <= prev || n >= c.cfg.MaxBatch || c.closed {
			return
		}
	}
}

// take pops up to MaxBatch calls in FIFO order. Caller holds c.mu.
func (c *Coalescer[Req, Res]) take() []*call[Req, Res] {
	n := min(len(c.queue), c.cfg.MaxBatch)
	batch := make([]*call[Req, Res], n)
	copy(batch, c.queue[:n])
	rest := copy(c.queue, c.queue[n:])
	clear(c.queue[rest:]) // release call pointers for GC
	c.queue = c.queue[:rest]
	c.cfg.Metrics.depth(rest)
	return batch
}

// runBatch drops cancelled calls, executes the flush over the survivors, and
// demultiplexes results (or the flush error) back to every caller.
func (c *Coalescer[Req, Res]) runBatch(batch []*call[Req, Res]) {
	live := batch[:0]
	for _, it := range batch {
		if err := it.ctx.Err(); err != nil {
			it.res <- result[Res]{err: err}
			c.cfg.Metrics.cancel()
			continue
		}
		live = append(live, it)
	}
	if len(live) == 0 {
		return
	}
	now := time.Now()
	reqs := make([]Req, len(live))
	for i, it := range live {
		reqs[i] = it.req
		c.cfg.Metrics.waited(now.Sub(it.enq))
	}
	c.cfg.Metrics.rows(len(live))
	flushStart := time.Now()
	ress, err := c.safeFlush(reqs)
	c.observeFlush(time.Since(flushStart), len(live))
	if err == nil && len(ress) != len(reqs) {
		err = fmt.Errorf("serve: flush returned %d results for %d requests", len(ress), len(reqs))
	}
	for i, it := range live {
		if err != nil {
			it.res <- result[Res]{err: err}
		} else {
			it.res <- result[Res]{val: ress[i]}
		}
	}
}

// safeFlush converts a panicking flush function into a per-batch error: a
// misbehaving model must fail the batch's callers, never hang them behind a
// dead dispatcher.
func (c *Coalescer[Req, Res]) safeFlush(reqs []Req) (ress []Res, err error) {
	defer func() {
		if r := recover(); r != nil {
			ress, err = nil, fmt.Errorf("serve: flush panicked: %v", r)
		}
	}()
	return c.flush(reqs)
}

package session

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"github.com/apdeepsense/apdeepsense/internal/core"
	"github.com/apdeepsense/apdeepsense/internal/hashkey"
	"github.com/apdeepsense/apdeepsense/internal/stats"
	"github.com/apdeepsense/apdeepsense/internal/stream"
	"github.com/apdeepsense/apdeepsense/internal/tensor"
)

// Sentinel errors beyond ErrConfig.
var (
	// ErrClosed is returned by Ingest after Close has begun.
	ErrClosed = fmt.Errorf("session: manager closed")
	// ErrEvicted is returned when a session was evicted between the moment
	// its window was cut and the moment its prediction came back — the
	// caller decides whether to re-ingest (which recreates the session).
	ErrEvicted = fmt.Errorf("session: evicted mid-flight")
)

// maxDeviceID bounds device identifier length (bytes).
const maxDeviceID = 255

// PredictBatchFunc runs the model's batched uncertainty path over a set of
// standardized windows. The manager calls it with one row per completed
// window; it must return exactly one GaussianVec per row. Wrapping a
// registry keeps the fleet hot-swap safe: the closure resolves the live
// model version at call time, and its coalescer batches concurrent windows.
type PredictBatchFunc func(ctx context.Context, rows []tensor.Vector) ([]core.GaussianVec, error)

// Config tunes a Manager. The zero value is invalid: Channels, Length, and
// Stride are required; every other field has the default noted on it.
type Config struct {
	// Channels, Length, Stride shape the per-session sliding window (the
	// stream.Slide cut): Length-sample windows over Channels-channel
	// samples, emitted every Stride samples.
	Channels int
	Length   int
	Stride   int
	// Standardize enables per-session online standardization of completed
	// windows before prediction: stats.WelfordAdd, then stream.Standardize,
	// over the flattened window vector.
	Standardize bool
	// WarmupWindows is how many windows a session must complete before its
	// surprisal z-score participates in gating (its own moments are too raw
	// before that; warmup windows always Accept unless degenerate).
	// Defaults to 8.
	WarmupWindows int
	// DriftThreshold is the calibrated score at or above which a window
	// counts as over-budget for the hysteresis gate. In (0, 1]; defaults
	// to 0.9 (about 4.2 sigma under DefaultCalibrator).
	DriftThreshold float64
	// EscalateAfter / ReadmitAfter are the per-session stream.Hysteresis
	// depths: the verdict flips to Escalate only after EscalateAfter
	// consecutive over-budget windows and returns to Accept only after
	// ReadmitAfter consecutive within-budget windows. Both default to 1
	// (stateless gating).
	EscalateAfter int
	ReadmitAfter  int
	// Shards is the number of lock shards (power of two, max 65536). Every
	// session lives in exactly one shard, keyed by hashkey.Hash64 of its
	// device ID. Defaults to 256.
	Shards int
	// IdleTimeout evicts sessions not ingested for at least this long (see
	// AdvanceTo/Run; eviction granularity is IdleTimeout/32). 0 disables
	// idle eviction.
	IdleTimeout time.Duration
	// Calibrator maps surprisal z-scores to actionable scores. Defaults to
	// DefaultCalibrator().
	Calibrator *Calibrator
	// Metrics, when non-nil, receives fleet observations (see NewMetrics).
	Metrics *Metrics
	// Clock overrides time.Now for idle-eviction bookkeeping (tests).
	Clock func() time.Time
}

func (c *Config) fillDefaults() error {
	if c.Channels < 1 || c.Length < 1 || c.Stride < 1 {
		return fmt.Errorf("channels=%d length=%d stride=%d: %w", c.Channels, c.Length, c.Stride, ErrConfig)
	}
	if c.WarmupWindows == 0 {
		c.WarmupWindows = 8
	}
	if c.WarmupWindows < 0 {
		return fmt.Errorf("WarmupWindows %d: %w", c.WarmupWindows, ErrConfig)
	}
	if c.DriftThreshold == 0 {
		c.DriftThreshold = 0.9
	}
	if c.DriftThreshold <= 0 || c.DriftThreshold > 1 || math.IsNaN(c.DriftThreshold) {
		return fmt.Errorf("DriftThreshold %v: %w", c.DriftThreshold, ErrConfig)
	}
	if c.EscalateAfter == 0 {
		c.EscalateAfter = 1
	}
	if c.ReadmitAfter == 0 {
		c.ReadmitAfter = 1
	}
	if c.EscalateAfter < 1 || c.ReadmitAfter < 1 {
		return fmt.Errorf("EscalateAfter %d, ReadmitAfter %d: %w", c.EscalateAfter, c.ReadmitAfter, ErrConfig)
	}
	if c.Shards == 0 {
		c.Shards = 256
	}
	if c.Shards < 1 || c.Shards > 65536 || c.Shards&(c.Shards-1) != 0 {
		return fmt.Errorf("Shards %d (want a power of two <= 65536): %w", c.Shards, ErrConfig)
	}
	if c.IdleTimeout < 0 {
		return fmt.Errorf("IdleTimeout %v: %w", c.IdleTimeout, ErrConfig)
	}
	if c.Calibrator == nil {
		c.Calibrator = DefaultCalibrator()
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	return nil
}

// Verdict is the outcome of one Ingest call. Window is false while the
// sample only advanced the ring; when true, the remaining fields carry the
// prediction and the gate's decision for the completed window.
type Verdict struct {
	// Window reports whether this sample completed a window (and therefore
	// whether the rest of the verdict is meaningful).
	Window bool
	// Pred is the model's predictive distribution for the window.
	Pred core.GaussianVec
	// MeanStd is the mean per-dimension predictive standard deviation — the
	// raw surprisal s the gate scored (stream.MeanStd: +Inf when Degenerate).
	MeanStd float64
	// Z is s standardized against this device's own surprisal history
	// (0 during warmup).
	Z float64
	// Score is the calibrated actionable score in [0, 1].
	Score float64
	// Decision is Accept or Escalate after hysteresis.
	Decision stream.Decision
	// Degenerate marks a prediction with no dimensions or a non-finite σ,
	// which escalates immediately regardless of hysteresis.
	Degenerate bool
}

// Stats is a consistent snapshot of fleet-wide counters.
type Stats struct {
	Resident        int   // sessions currently held
	Created         int64 // sessions ever created
	EvictedIdle     int64 // sessions evicted by the idle wheel
	EvictedExplicit int64 // sessions evicted by Evict
	Ingested        int64 // samples ingested
	Windows         int64 // windows completed (and predicted)
	Accepted        int64 // windows gated Accept
	Escalated       int64 // windows gated Escalate
	NonFinite       int64 // escalations caused by degenerate predictions
}

// shard is one lock stripe of the session arena. All per-session state
// lives in parallel struct-of-arrays slot arrays: a session is an index,
// not an object graph, so a million resident sessions are a handful of
// large slabs instead of millions of small heap allocations. Freed slots
// recycle through a freelist; gen disambiguates reuse.
type shard struct {
	mu   sync.Mutex
	ids  map[string]int32 // device ID -> slot
	free []int32          // recycled slots

	// Per-slot state. Scalars are one entry per slot; vector state is
	// winDim entries per slot at slot*winDim.
	dev     []string            // device ID ("" when free)
	gen     []uint32            // bumped on free; detects reuse across unlock windows
	count   []uint64            // samples pushed (windower count)
	ring    []float64           // window ring, winDim per slot
	stdN    []int64             // standardizer observation count
	stdMean []float64           // standardizer running mean, winDim per slot
	stdM2   []float64           // standardizer running M2, winDim per slot
	sur     []stats.Welford     // surprisal moments
	latch   []stream.Hysteresis // gate streaks and latch
	touch   []int64             // last ingest, unix nanos

	// Idle-eviction timing wheel: wheelPos is the bucket a slot currently
	// hangs in (-1 when idle eviction is off or the slot is free), prev and
	// next are intrusive doubly-linked list links, buckets holds each
	// bucket's list head, and tick is the last wheel tick this shard has
	// processed.
	wheelPos []int32
	prev     []int32
	next     []int32
	buckets  []int32
	tick     int64
}

// Manager is the resident session fleet. All methods are safe for
// concurrent use across devices; ingests for ONE device must be serialized
// by the caller (samples have an order — interleaving a single device's
// stream across goroutines has no meaningful window semantics, exactly as
// stream.Windower).
type Manager struct {
	cfg     Config
	winDim  int
	predict PredictBatchFunc

	shards []*shard
	mask   uint64

	// Wheel geometry (IdleTimeout > 0 only).
	tickDur   time.Duration
	idleTicks int64
	epoch     time.Time

	closed atomic.Bool

	created         atomic.Int64
	evictedIdle     atomic.Int64
	evictedExplicit atomic.Int64
	ingested        atomic.Int64
	windows         atomic.Int64
	accepted        atomic.Int64
	escalated       atomic.Int64
	nonFinite       atomic.Int64
}

// NewManager builds a session fleet whose completed windows are predicted
// by predict (typically a closure over a registry's PredictBatch, so model
// hot-swaps apply to the fleet transparently).
func NewManager(cfg Config, predict PredictBatchFunc) (*Manager, error) {
	if predict == nil {
		return nil, fmt.Errorf("nil predict function: %w", ErrConfig)
	}
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	m := &Manager{
		cfg:     cfg,
		winDim:  cfg.Length * cfg.Channels,
		predict: predict,
		shards:  make([]*shard, cfg.Shards),
		mask:    uint64(cfg.Shards - 1),
		epoch:   cfg.Clock(),
	}
	nBuckets := 0
	if cfg.IdleTimeout > 0 {
		// ~32 buckets of eviction granularity; a session is evicted between
		// IdleTimeout and IdleTimeout + 2 ticks after its last ingest.
		m.tickDur = cfg.IdleTimeout / 32
		if m.tickDur < time.Millisecond {
			m.tickDur = time.Millisecond
		}
		m.idleTicks = int64(cfg.IdleTimeout/m.tickDur) + 1
		nBuckets = int(m.idleTicks) + 1
	}
	for i := range m.shards {
		sh := &shard{ids: make(map[string]int32)}
		if nBuckets > 0 {
			sh.buckets = make([]int32, nBuckets)
			for b := range sh.buckets {
				sh.buckets[b] = -1
			}
		}
		m.shards[i] = sh
	}
	return m, nil
}

// shardFor picks the lock stripe for a device.
func (m *Manager) shardFor(deviceID string) *shard {
	return m.shards[hashkey.Hash64(deviceID)&m.mask]
}

// tickOf converts a wall time to a wheel tick.
func (m *Manager) tickOf(now time.Time) int64 {
	return int64(now.Sub(m.epoch) / m.tickDur)
}

// growLocked appends one fresh slot to every slot array and returns its
// index. Caller holds sh.mu.
func (sh *shard) growLocked(winDim int) int32 {
	slot := int32(len(sh.dev))
	sh.dev = append(sh.dev, "")
	sh.gen = append(sh.gen, 0)
	sh.count = append(sh.count, 0)
	sh.ring = append(sh.ring, make([]float64, winDim)...)
	sh.stdN = append(sh.stdN, 0)
	sh.stdMean = append(sh.stdMean, make([]float64, winDim)...)
	sh.stdM2 = append(sh.stdM2, make([]float64, winDim)...)
	sh.sur = append(sh.sur, stats.Welford{})
	sh.latch = append(sh.latch, stream.Hysteresis{})
	sh.touch = append(sh.touch, 0)
	sh.wheelPos = append(sh.wheelPos, -1)
	sh.prev = append(sh.prev, -1)
	sh.next = append(sh.next, -1)
	return slot
}

// allocLocked claims a slot for a device: freelist first, growth otherwise.
// All per-session state is reset. Caller holds sh.mu.
func (sh *shard) allocLocked(deviceID string, winDim int) int32 {
	var slot int32
	if n := len(sh.free); n > 0 {
		slot = sh.free[n-1]
		sh.free = sh.free[:n-1]
		base := int(slot) * winDim
		for i := base; i < base+winDim; i++ {
			sh.ring[i] = 0
			sh.stdMean[i] = 0
			sh.stdM2[i] = 0
		}
		sh.count[slot] = 0
		sh.stdN[slot] = 0
		sh.sur[slot] = stats.Welford{}
		sh.latch[slot] = stream.Hysteresis{}
	} else {
		slot = sh.growLocked(winDim)
	}
	sh.dev[slot] = deviceID
	sh.ids[deviceID] = slot
	return slot
}

// freeLocked evicts a slot: unlinks it from the wheel, clears its identity,
// bumps its generation, and returns it to the freelist. Caller holds sh.mu.
func (sh *shard) freeLocked(slot int32) {
	sh.wheelUnlinkLocked(slot)
	delete(sh.ids, sh.dev[slot])
	sh.dev[slot] = ""
	sh.gen[slot]++
	sh.free = append(sh.free, slot)
}

// wheelUnlinkLocked removes a slot from its wheel bucket (no-op when not
// linked). Caller holds sh.mu.
func (sh *shard) wheelUnlinkLocked(slot int32) {
	pos := sh.wheelPos[slot]
	if pos < 0 {
		return
	}
	if sh.prev[slot] >= 0 {
		sh.next[sh.prev[slot]] = sh.next[slot]
	} else {
		sh.buckets[pos] = sh.next[slot]
	}
	if sh.next[slot] >= 0 {
		sh.prev[sh.next[slot]] = sh.prev[slot]
	}
	sh.wheelPos[slot] = -1
	sh.prev[slot] = -1
	sh.next[slot] = -1
}

// wheelTouchLocked (re)inserts a slot at the bucket the eviction cursor
// will reach one full idle timeout from now. Caller holds sh.mu.
func (m *Manager) wheelTouchLocked(sh *shard, slot int32, nowTick int64) {
	sh.wheelUnlinkLocked(slot)
	pos := int32((nowTick + m.idleTicks) % int64(len(sh.buckets)))
	sh.wheelPos[slot] = pos
	sh.prev[slot] = -1
	sh.next[slot] = sh.buckets[pos]
	if sh.next[slot] >= 0 {
		sh.prev[sh.next[slot]] = slot
	}
	sh.buckets[pos] = slot
}

// advanceLocked moves the shard's eviction cursor to nowTick, evicting
// every session in each bucket it passes (those sessions were last touched
// at least IdleTimeout ago — touching reinserts ahead of the cursor).
// Returns the number evicted. Caller holds sh.mu.
func (m *Manager) advanceLocked(sh *shard, nowTick int64) int {
	if len(sh.buckets) == 0 || nowTick <= sh.tick {
		return 0
	}
	steps := nowTick - sh.tick
	if steps > int64(len(sh.buckets)) {
		steps = int64(len(sh.buckets)) // one full revolution sweeps everything due
	}
	evicted := 0
	for s := int64(1); s <= steps; s++ {
		b := (sh.tick + s) % int64(len(sh.buckets))
		for sh.buckets[b] >= 0 {
			sh.freeLocked(sh.buckets[b])
			evicted++
		}
	}
	sh.tick = nowTick
	return evicted
}

// Ingest feeds one sample into a device's session, creating the session on
// first contact. While the window is filling it returns a zero Verdict;
// when the sample completes a window it standardizes (if configured),
// predicts, and gates, returning the full verdict. Samples for one device
// must be ingested from one goroutine at a time.
func (m *Manager) Ingest(ctx context.Context, deviceID string, sample []float64) (Verdict, error) {
	if m.closed.Load() {
		return Verdict{}, ErrClosed
	}
	if deviceID == "" || len(deviceID) > maxDeviceID {
		return Verdict{}, fmt.Errorf("device ID length %d (want 1..%d): %w", len(deviceID), maxDeviceID, ErrConfig)
	}
	if len(sample) != m.cfg.Channels {
		return Verdict{}, fmt.Errorf("sample has %d channels, want %d: %w", len(sample), m.cfg.Channels, ErrConfig)
	}
	sh := m.shardFor(deviceID)
	var nowTick int64
	if m.idleTicks > 0 {
		nowTick = m.tickOf(m.cfg.Clock())
	}

	sh.mu.Lock()
	if m.idleTicks > 0 {
		// Opportunistic sweep: ingest traffic keeps this shard's cursor
		// current even without a background Run loop.
		if n := m.advanceLocked(sh, nowTick); n > 0 {
			m.evictedIdle.Add(int64(n))
			m.cfg.Metrics.evicted("idle", n)
		}
	}
	slot, ok := sh.ids[deviceID]
	if !ok {
		slot = sh.allocLocked(deviceID, m.winDim)
		m.created.Add(1)
		m.cfg.Metrics.created()
	}
	if m.idleTicks > 0 {
		m.wheelTouchLocked(sh, slot, nowTick)
		sh.touch[slot] = m.cfg.Clock().UnixNano()
	}

	base := int(slot) * m.winDim
	win := stream.Slide(sh.ring[base:base+m.winDim], sh.count[slot], sample, m.cfg.Length, m.cfg.Stride)
	sh.count[slot]++
	m.ingested.Add(1)
	m.cfg.Metrics.ingested()
	if win == nil {
		sh.mu.Unlock()
		return Verdict{}, nil
	}
	if m.cfg.Standardize {
		mean, m2 := sh.stdMean[base:base+m.winDim], sh.stdM2[base:base+m.winDim]
		sh.stdN[slot] = stats.WelfordAdd(sh.stdN[slot], mean, m2, win)
		stream.Standardize(sh.stdN[slot], mean, m2, win, win)
	}
	gen := sh.gen[slot]
	sh.mu.Unlock()

	pred, err := m.doPredict(ctx, tensor.Vector(win))
	if err != nil {
		return Verdict{}, err
	}
	m.windows.Add(1)
	m.cfg.Metrics.window()

	s, degenerate := stream.MeanStd(pred)

	sh.mu.Lock()
	if cur, ok := sh.ids[deviceID]; !ok || cur != slot || sh.gen[slot] != gen {
		sh.mu.Unlock()
		return Verdict{}, ErrEvicted
	}
	// Surprisal-then-calibrate: z-score s against the device's own history
	// (before folding s in), then map through the fleet calibrator.
	sur := &sh.sur[slot]
	z, score := 0.0, 1.0
	warm := sur.Count() >= int64(m.cfg.WarmupWindows)
	if !degenerate {
		if warm {
			z = stream.Z(s, sur.Mean(), sur.Variance())
		}
		sur.Add(s)
		score = m.cfg.Calibrator.Score(z)
	}
	over := warm && score >= m.cfg.DriftThreshold
	decision := sh.latch[slot].Step(over, degenerate, m.cfg.EscalateAfter, m.cfg.ReadmitAfter)
	sh.mu.Unlock()

	if degenerate {
		m.nonFinite.Add(1)
	}
	if decision == stream.Escalate {
		m.escalated.Add(1)
	} else {
		m.accepted.Add(1)
	}
	m.cfg.Metrics.verdict(decision)
	return Verdict{
		Window:     true,
		Pred:       pred,
		MeanStd:    s,
		Z:          z,
		Score:      score,
		Decision:   decision,
		Degenerate: degenerate,
	}, nil
}

// doPredict runs one window through the predict function.
func (m *Manager) doPredict(ctx context.Context, x tensor.Vector) (core.GaussianVec, error) {
	preds, err := m.predict(ctx, []tensor.Vector{x})
	if err != nil {
		return core.GaussianVec{}, err
	}
	if len(preds) != 1 {
		return core.GaussianVec{}, fmt.Errorf("session: predict returned %d results for 1 row", len(preds))
	}
	return preds[0], nil
}

// Evict removes a device's session immediately, reporting whether one
// existed.
func (m *Manager) Evict(deviceID string) bool {
	sh := m.shardFor(deviceID)
	sh.mu.Lock()
	slot, ok := sh.ids[deviceID]
	if ok {
		sh.freeLocked(slot)
	}
	sh.mu.Unlock()
	if ok {
		m.evictedExplicit.Add(1)
		m.cfg.Metrics.evicted("explicit", 1)
	}
	return ok
}

// Resident returns the number of sessions currently held.
func (m *Manager) Resident() int {
	n := 0
	for _, sh := range m.shards {
		sh.mu.Lock()
		n += len(sh.ids)
		sh.mu.Unlock()
	}
	return n
}

// Stats returns fleet-wide counters. Resident is exact at the time of the
// call; the monotonic counters are individually exact.
func (m *Manager) Stats() Stats {
	return Stats{
		Resident:        m.Resident(),
		Created:         m.created.Load(),
		EvictedIdle:     m.evictedIdle.Load(),
		EvictedExplicit: m.evictedExplicit.Load(),
		Ingested:        m.ingested.Load(),
		Windows:         m.windows.Load(),
		Accepted:        m.accepted.Load(),
		Escalated:       m.escalated.Load(),
		NonFinite:       m.nonFinite.Load(),
	}
}

// AdvanceTo sweeps every shard's idle-eviction wheel up to now, returning
// the number of sessions evicted. It is a no-op without an IdleTimeout.
// Ingest also advances its own shard opportunistically, so AdvanceTo (or
// Run) is only needed to evict shards receiving no traffic at all.
func (m *Manager) AdvanceTo(now time.Time) int {
	if m.idleTicks == 0 {
		return 0
	}
	nowTick := m.tickOf(now)
	total := 0
	for _, sh := range m.shards {
		sh.mu.Lock()
		n := m.advanceLocked(sh, nowTick)
		sh.mu.Unlock()
		if n > 0 {
			total += n
		}
	}
	if total > 0 {
		m.evictedIdle.Add(int64(total))
		m.cfg.Metrics.evicted("idle", total)
	}
	m.cfg.Metrics.resident(m.Resident())
	return total
}

// Run drives idle eviction in the background until ctx ends, sweeping every
// interval (defaulting to the wheel tick).
func (m *Manager) Run(ctx context.Context, interval time.Duration) {
	if m.idleTicks == 0 {
		<-ctx.Done()
		return
	}
	if interval <= 0 {
		interval = m.tickDur
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			m.AdvanceTo(m.cfg.Clock())
		}
	}
}

// Close stops intake: Ingest returns ErrClosed afterwards. Sessions stay
// resident for a final Snapshot. Close holds no queue of its own, so it
// never blocks and always returns nil; ctx is unused.
func (m *Manager) Close(ctx context.Context) error {
	m.closed.Store(true)
	return nil
}

package registry

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"github.com/apdeepsense/apdeepsense/internal/core"
	"github.com/apdeepsense/apdeepsense/internal/nn"
	"github.com/apdeepsense/apdeepsense/internal/serve"
)

// drainTimeout bounds how long a retired version's background drain waits for
// its coalescer to flush the stragglers. Requests admitted to a version are
// answered by that version, so the drain only ever waits on work that is
// already in flight; the bound exists to keep a wedged flush function from
// leaking the goroutine forever.
const drainTimeout = 30 * time.Second

// Version is one immutable loaded model version: the network, its estimator
// (propagator), its own serving pool (request coalescer), and the content
// fingerprint the serving API reports. Versions are reference-counted:
// requests hold a reference for the duration of their coalescer call, the
// registry holds one while the version is registered, and the coalescer is
// closed in the background only after the last reference drops — which is
// what makes hot-swap drop zero requests.
type Version struct {
	// ID is the manifest-assigned version identifier, e.g. "v1".
	ID string
	// Fingerprint is nn.Network.Fingerprint() of the loaded network: the
	// content hash change detection and response tagging use.
	Fingerprint string

	net  *nn.Network
	est  core.Estimator
	coal *serve.PredictCoalescer

	// refs counts holders: 1 for the registry while registered, +1 per
	// admitted request. retire drops the registry's reference; release of the
	// last reference closes idle exactly once.
	refs atomic.Int64
	// retired flips once when the registry drops the version; tryAcquire
	// refuses retired versions so routing races resolve by re-reading the
	// route snapshot instead of piling onto a draining pool.
	retired atomic.Bool
	// idle is closed when refs reaches zero; the background drain waits on it
	// before closing the coalescer.
	idle     chan struct{}
	idleOnce sync.Once
}

func newVersion(id string, net *nn.Network, est core.Estimator, coal *serve.PredictCoalescer) *Version {
	v := &Version{
		ID:          id,
		Fingerprint: net.Fingerprint(),
		net:         net,
		est:         est,
		coal:        coal,
		idle:        make(chan struct{}),
	}
	v.refs.Store(1)
	return v
}

// Network returns the version's loaded network (read-only).
func (v *Version) Network() *nn.Network { return v.net }

// Estimator returns the version's estimator. It stays usable after the
// version drains (the coalescer closes, the propagator does not), which is
// what lets tests compare served responses against direct propagation.
func (v *Version) Estimator() core.Estimator { return v.est }

// QueueDepth reports how many requests wait in this version's pool.
func (v *Version) QueueDepth() int { return v.coal.Depth() }

// tryAcquire takes a request reference. It fails when the version has been
// retired or its last reference already dropped; the caller must then re-read
// the route snapshot, which no longer lists this version.
func (v *Version) tryAcquire() bool {
	if v.retired.Load() {
		return false
	}
	for {
		n := v.refs.Load()
		if n <= 0 {
			return false
		}
		if v.refs.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// release drops one reference, closing idle on the last.
func (v *Version) release() {
	if v.refs.Add(-1) == 0 {
		v.idleOnce.Do(func() { close(v.idle) })
	}
}

// retire drops the registry's reference and schedules the coalescer close for
// when the last in-flight request releases. Safe to call more than once.
// onDrained, if non-nil, runs after the coalescer has fully drained.
func (v *Version) retire(onDrained func()) {
	if !v.retired.CompareAndSwap(false, true) {
		return
	}
	go func() {
		<-v.idle
		ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		defer cancel()
		// Close is idempotent and concurrent-safe; by the time idle closes,
		// no request can re-acquire this version, so nothing new enqueues.
		_ = v.coal.Close(ctx)
		if onDrained != nil {
			onDrained()
		}
	}()
	v.release()
}

package registry

import (
	"fmt"
	"sync"

	"github.com/apdeepsense/apdeepsense/internal/core"
	"github.com/apdeepsense/apdeepsense/internal/nn"
	"github.com/apdeepsense/apdeepsense/internal/qprop"
)

// quantKey identifies one quantized program. Fingerprint covers the weights,
// dimensions, activations, and keep probabilities; the PWL piece counts cover
// the activation knots the dequantized moments feed into. There is no
// maxBatch component — quantized programs are batch-size-agnostic (per-row
// scratch), so any batch the coalescer flushes is covered. The fixed-point
// path serves the PWL forms for every activation, rectifiers included (its
// accuracy contract is the oracle's quantization budget, which dwarfs the
// exact-vs-PWL conditioning difference).
type quantKey struct {
	fingerprint   string
	tanhPieces    int
	sigmoidPieces int
}

// quantEntry is one refcounted cache slot. ready closes when the build
// finishes (prog or err set); refs counts the versions holding the program
// plus any acquires still waiting on ready.
type quantEntry struct {
	refs  int
	ready chan struct{}
	prog  *qprop.Propagator
	err   error
}

// quantCache shares quantized programs across versions with identical
// networks, exactly like compileCache shares compiled ones: a manifest re-add
// or a canary of the same weights must not pay a second quantization pass.
// Eviction is pure refcounting — the last release of a key drops the entry.
type quantCache struct {
	mu      sync.Mutex
	entries map[quantKey]*quantEntry
}

func newQuantCache() *quantCache {
	return &quantCache{entries: make(map[quantKey]*quantEntry)}
}

// acquire returns the quantized program for key, building it via build on a
// miss. Concurrent acquires of the same key share one build. The returned
// release func drops this holder's reference (call exactly once, when the
// version retires); hit reports whether the program came from cache. On error
// the reference is already dropped and release is nil.
func (c *quantCache) acquire(key quantKey, build func() (*qprop.Propagator, error)) (prog *qprop.Propagator, release func(), hit bool, err error) {
	c.mu.Lock()
	e, ok := c.entries[key]
	if ok {
		e.refs++
		c.mu.Unlock()
		<-e.ready
		if e.err != nil {
			c.release(key)
			return nil, nil, false, e.err
		}
		return e.prog, func() { c.release(key) }, true, nil
	}
	e = &quantEntry{refs: 1, ready: make(chan struct{})}
	c.entries[key] = e
	c.mu.Unlock()

	e.prog, e.err = build()
	close(e.ready)
	if e.err != nil {
		c.release(key)
		return nil, nil, false, e.err
	}
	return e.prog, func() { c.release(key) }, false, nil
}

// release drops one reference on key, deleting the entry at zero.
func (c *quantCache) release(key quantKey) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok {
		return
	}
	e.refs--
	if e.refs <= 0 {
		delete(c.entries, key)
	}
}

// size reports the number of cached programs (for tests and status).
func (c *quantCache) size() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// buildQuantized is the quantized-build step behind quantFor, a package
// variable so fault-injection tests can force quantization failures and
// exercise the float fallback without constructing a genuinely unquantizable
// network.
var buildQuantized = func(net *nn.Network, opts core.Options) (*qprop.Propagator, error) {
	qp, _, err := qprop.Build(net, opts)
	return qp, err
}

// quantFor builds (or fetches from cache) the quantized program for ap's
// network and installs it on ap's propagator. Like compileFor, it runs inside
// buildVersion — before the version is registered or routable — so a hot
// reload quantizes while the old version keeps serving. qprop.Build smoke-
// checks the program against an all-ones input at build time, and the
// version's own warmup inference then exercises the installed program end to
// end (dispatch routes Predict through it), so routability is still gated on
// the quantized path actually producing a valid response. Returns the
// cache-release func for the version to call on retire.
//
// A quantize failure is NOT a load failure: the caller falls back to the
// float (and, unless disabled, compiled) path. Oversized weights that
// overflow the fixed-point scheme degrade to slower serving, never to an
// unservable model.
func (r *Registry) quantFor(id string, ap *core.ApDeepSense, fp string) (func(), error) {
	key := quantKey{
		fingerprint:   fp,
		tanhPieces:    r.cfg.Options.TanhPieces,
		sigmoidPieces: r.cfg.Options.SigmoidPieces,
	}
	prop := ap.Propagator()
	prog, release, hit, err := r.quants.acquire(key, func() (*qprop.Propagator, error) {
		return buildQuantized(prop.Network(), r.cfg.Options)
	})
	if err != nil {
		return nil, fmt.Errorf("registry: version %s quantize: %w", id, err)
	}
	if hit {
		r.cfg.Metrics.quantizedBuild("cache_hit")
	} else {
		r.cfg.Metrics.quantizedBuild("ok")
	}
	prop.SetQuantized(prog)
	return release, nil
}

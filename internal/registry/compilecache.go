package registry

import (
	"fmt"
	"sync"

	"github.com/apdeepsense/apdeepsense/internal/compile"
	"github.com/apdeepsense/apdeepsense/internal/core"
)

// defaultCompileMaxBatch mirrors serve.Config.MaxBatch's default: the
// compiled program must cover every batch the version's coalescer can flush,
// so the two defaults are the same number.
const defaultCompileMaxBatch = 64

// compileKey identifies one compiled program. Fingerprint covers the weights,
// dimensions, activations (which also pick each layer's activation-moment
// backend), and keep probabilities; maxBatch fixes the unrolled panel sweep
// and scratch sizing; the PWL piece counts cover the activation knots baked
// into the fused closures. Two versions agreeing on all of these produce
// bit-identical programs, so they can share one.
type compileKey struct {
	fingerprint   string
	maxBatch      int
	tanhPieces    int
	sigmoidPieces int
}

// compileEntry is one refcounted cache slot. ready closes when the build
// finishes (prog or err set); refs counts the versions holding the program
// plus any acquires still waiting on ready.
type compileEntry struct {
	refs  int
	ready chan struct{}
	prog  *compile.Program
	err   error
}

// compileCache shares compiled programs across versions with identical
// networks — the common shape of a hot reload, where a manifest re-add or a
// canary of the same weights must not pay a second compile. Eviction is pure
// refcounting: the last release of a key drops the entry, and retired
// versions release on retire (in-flight requests are unaffected — the
// propagator itself keeps the program alive until it is collected).
type compileCache struct {
	mu      sync.Mutex
	entries map[compileKey]*compileEntry
}

func newCompileCache() *compileCache {
	return &compileCache{entries: make(map[compileKey]*compileEntry)}
}

// acquire returns the compiled program for key, building it via build on a
// miss. Concurrent acquires of the same key share one build: the first caller
// compiles, the rest wait on ready. The returned release func drops this
// holder's reference (call exactly once, when the version retires); hit
// reports whether the program came from cache. On error the reference is
// already dropped and release is nil.
func (c *compileCache) acquire(key compileKey, build func() (*compile.Program, error)) (prog *compile.Program, release func(), hit bool, err error) {
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
	e = &compileEntry{refs: 1, ready: make(chan struct{})}
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
func (c *compileCache) release(key compileKey) {
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
func (c *compileCache) size() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// compileFor compiles (or fetches from cache) the program for ap's network
// and installs it on ap's propagator. The call runs inside buildVersion —
// before the version is registered or routable, off the serving path, so a
// hot reload compiles while the old version keeps serving. The program is
// warmed against this version's own propagator even on a cache hit: warming
// is the bit-identity self-check, and routability is gated on it passing.
// Returns the cache-release func for the version to call on retire.
func (r *Registry) compileFor(id string, ap *core.ApDeepSense, fp string) (func(), error) {
	maxBatch := r.cfg.Serve.MaxBatch
	if maxBatch == 0 {
		maxBatch = defaultCompileMaxBatch
	}
	key := compileKey{
		fingerprint:   fp,
		maxBatch:      maxBatch,
		tanhPieces:    r.cfg.Options.TanhPieces,
		sigmoidPieces: r.cfg.Options.SigmoidPieces,
	}
	prop := ap.Propagator()
	prog, release, hit, err := r.compiles.acquire(key, func() (*compile.Program, error) {
		pg, err := compile.Compile(prop, maxBatch)
		if err != nil {
			return nil, err
		}
		if err := pg.Warm(prop); err != nil {
			return nil, err
		}
		return pg, nil
	})
	if err != nil {
		r.cfg.Metrics.compiled("error")
		return nil, fmt.Errorf("registry: version %s compile: %w", id, err)
	}
	if hit {
		// A shared program was warmed against the propagator it was built
		// for; re-warm against this one so every version's routability rests
		// on its own bit-identity check.
		if err := prog.Warm(prop); err != nil {
			release()
			r.cfg.Metrics.compiled("error")
			return nil, fmt.Errorf("registry: version %s compile (cached): %w", id, err)
		}
		r.cfg.Metrics.compiled("cache_hit")
	} else {
		r.cfg.Metrics.compiled("ok")
	}
	prop.SetCompiled(prog)
	return release, nil
}

// Package registry is the multi-model serving layer above internal/serve: a
// concurrency-safe, versioned model store and router in the mold of a model
// server's model repository (TF-Serving's servable manager, Triton's model
// repository). Each model name maps to a set of loaded Versions — every
// version owning its network, propagator, and its own request-coalescer pool
// — plus an atomically swappable route table selecting which version serves.
//
// The swap semantics are snapshot-based: routing state lives behind an
// atomic.Pointer, requests resolve their version by loading the snapshot and
// taking a reference, and a swap installs a new snapshot without touching
// requests admitted under the old one. In-flight requests finish on the
// version that admitted them; the old version drains and closes its pool in
// the background once its last reference drops. No request is ever dropped
// by a swap (proven by the hammer test), and every response is bit-identical
// to direct propagation on the version that served it.
//
// Traffic policy per model: a required current version, an optional canary
// (weighted split with deterministic per-request key hashing, so the same
// request key always lands on the same side), and an optional shadow (the
// request is duplicated to a candidate version from a bounded background
// pool, its result discarded, and the mean/σ drift against the primary
// response recorded as histograms — RDeepSense-style quality guardrails for
// a version before it takes traffic).
//
// Models load from a JSON manifest (see manifest.go) through the hardened
// nn.Load path, are fingerprinted (nn.Network.Fingerprint), and run a warmup
// inference before becoming routable.
package registry

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/apdeepsense/apdeepsense/internal/core"
	"github.com/apdeepsense/apdeepsense/internal/hashkey"
	"github.com/apdeepsense/apdeepsense/internal/nn"
	"github.com/apdeepsense/apdeepsense/internal/serve"
	"github.com/apdeepsense/apdeepsense/internal/tensor"
)

var (
	// ErrNotFound is returned for requests naming an unknown model or version.
	ErrNotFound = errors.New("registry: not found")
	// ErrNotReady is returned while a model has no routable current version.
	ErrNotReady = errors.New("registry: no routable version")
	// ErrClosed is returned after Close has begun.
	ErrClosed = errors.New("registry: closed")
	// ErrRegistry is returned (wrapped) for invalid registrations and routes.
	ErrRegistry = errors.New("registry: invalid")
)

// Routes a request can be served on, reported in Served.Route.
const (
	// RouteCurrent is the model's primary version.
	RouteCurrent = "current"
	// RouteCanary is the weighted candidate split.
	RouteCanary = "canary"
)

// shadowJobTimeout bounds one background shadow comparison.
const shadowJobTimeout = 5 * time.Second

// Config tunes a Registry. The zero value is usable: default serve pools, no
// metrics, warmup on.
type Config struct {
	// Serve is the per-version coalescer pool template. Its Metrics field may
	// be shared across versions (serve.Metrics is concurrency-safe).
	Serve serve.Config
	// Options configures each version's propagator (PWL piece counts).
	Options core.Options
	// Metrics, when non-nil, receives registry observations (see NewMetrics).
	Metrics *Metrics
	// Hooks, when non-nil, is attached to every version's propagator (layer
	// timing, batch sizes, scratch reuse — see core.Hooks) once its warmup
	// has passed, so build-time work never reaches them. Shared across
	// versions; core hooks are concurrency-safe by contract.
	Hooks *core.Hooks
	// SkipWarmup disables the warmup inference run before a version becomes
	// routable. Tests use it to register deliberately slow estimators.
	SkipWarmup bool
	// EnableQuantized turns on the int8 fixed-point serving path for every
	// version built from a network: the weights are quantized at load time
	// (internal/qprop) and the quantized program — built or fetched from the
	// fingerprint-keyed cache — takes dispatch priority over the float
	// engine. Quantization is opt-in because it is an approximation, not a
	// bit-identical specialization: its accuracy contract is the oracle's
	// quantization error budget, not Float64bits equality with the float
	// path. A version whose weights the fixed-point scheme rejects falls
	// back to float serving (counted as
	// apds_registry_quantized_total{result="fallback"}); quantization never
	// fails a load. Per-model opt-in is available through SetQuantized or
	// the manifest's "quantized" flag.
	EnableQuantized bool
	// ShadowBuffer bounds pending shadow comparisons; beyond it duplicates
	// are dropped (and counted) rather than ever blocking the primary path.
	// Defaults to 256.
	ShadowBuffer int
	// ShadowWorkers is the number of goroutines running shadow comparisons.
	// Defaults to 2.
	ShadowWorkers int
}

// Served identifies which version answered a request: the response tag the
// server exposes and the hammer test checks bit-identity against.
type Served struct {
	Model       string `json:"model"`
	Version     string `json:"version"`
	Fingerprint string `json:"fingerprint"`
	Route       string `json:"route"`
}

// routeTable is one immutable routing snapshot. Swaps replace the whole
// table; readers load it once per request, so a request observes a single
// consistent policy.
type routeTable struct {
	current      *Version
	canary       *Version
	canaryWeight float64
	shadow       *Version
}

// pick selects the serving version for a request key: the canary when the
// key's hash falls inside the weighted split, the current version otherwise.
// Hashing (not sampling) makes the split deterministic per key, so retries
// and A/B attribution are stable.
func (rt *routeTable) pick(key string) (*Version, string) {
	if rt.canary != nil && rt.canaryWeight > 0 && hashFraction(key) < rt.canaryWeight {
		return rt.canary, RouteCanary
	}
	return rt.current, RouteCurrent
}

// hashFraction maps a request key to [0, 1): the avalanche-finished request
// key hash shared with the cluster tier's consistent-hash ring
// (internal/hashkey), so canary splits and shard placement agree on what a
// key hashes to. Bit-identical to the FNV-1a + fmix64 construction this
// package originally carried inline (pinned by hashkey's stdlib-FNV test).
func hashFraction(key string) float64 { return hashkey.Fraction(key) }

// model is one named entry: its registered versions and the atomic route
// snapshot. mu serializes mutations (add/remove/swap); the request path is
// lock-free on the model (snapshot load + version refcount).
type model struct {
	name   string
	obsVar float64
	// quantized opts versions of this model into the fixed-point serving
	// path (applies to versions added from when it is set, like obsVar).
	quantized bool

	mu       sync.Mutex
	versions map[string]*Version
	order    []string // registration order, for stable listings
	// displaced holds version objects replaced under their ID by a reload
	// but possibly still named by the live route table. They keep serving
	// until the next SetRoutes installs a table without them — retiring a
	// displaced-but-routed version any earlier would open a window where the
	// table points only at unservable versions.
	displaced []*Version

	route atomic.Pointer[routeTable]
}

// Registry is the multi-model store and router. All methods are safe for
// concurrent use.
type Registry struct {
	cfg Config

	mu     sync.RWMutex
	models map[string]*model
	closed bool

	// quants shares load-time quantized programs across versions with
	// identical networks (see quantcache.go).
	quants *quantCache

	shadowJobs chan shadowJob
	shadowWG   sync.WaitGroup
	// drains counts versions registered but not yet fully drained; Close
	// waits on it so a shut-down registry has no goroutines left behind.
	drains sync.WaitGroup
}

// New builds an empty registry.
func New(cfg Config) *Registry {
	if cfg.ShadowBuffer == 0 {
		cfg.ShadowBuffer = 256
	}
	if cfg.ShadowWorkers == 0 {
		cfg.ShadowWorkers = 2
	}
	r := &Registry{
		cfg:        cfg,
		models:     make(map[string]*model),
		quants:     newQuantCache(),
		shadowJobs: make(chan shadowJob, cfg.ShadowBuffer),
	}
	for i := 0; i < cfg.ShadowWorkers; i++ {
		r.shadowWG.Add(1)
		go r.shadowWorker()
	}
	return r
}

// lookup returns the model entry, distinguishing closed from unknown.
func (r *Registry) lookup(name string) (*model, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if r.closed {
		return nil, ErrClosed
	}
	m, ok := r.models[name]
	if !ok {
		return nil, fmt.Errorf("model %q: %w", name, ErrNotFound)
	}
	return m, nil
}

// ensureModel returns the entry for name, creating it on first use; obsVar
// applies to versions added from then on.
func (r *Registry) ensureModel(name string, obsVar float64) (*model, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, ErrClosed
	}
	m, ok := r.models[name]
	if !ok {
		m = &model{name: name, versions: make(map[string]*Version)}
		r.models[name] = m
	}
	m.mu.Lock()
	m.obsVar = obsVar
	m.mu.Unlock()
	return m, nil
}

// AddVersion loads net as version id of the named model (created on first
// use): it builds the propagator and a dedicated coalescer pool, runs a
// warmup inference (unless disabled), and registers the version — not yet
// routable until a SetRoutes names it. Re-adding an id whose fingerprint is
// unchanged is a no-op returning the existing version; a changed fingerprint
// replaces the old version object (the old one drains once unrouted).
func (r *Registry) AddVersion(modelName, id string, net *nn.Network) (*Version, error) {
	return r.addVersion(modelName, id, net, nil)
}

// AddVersionEstimator is AddVersion with a caller-supplied estimator instead
// of one built from the network: the injection point for custom estimators
// (and fault-injection test doubles). The fingerprint still comes from net,
// so content-based change detection works unchanged; warmup (unless
// disabled) runs against the supplied estimator.
func (r *Registry) AddVersionEstimator(modelName, id string, net *nn.Network, est core.Estimator) (*Version, error) {
	if est == nil {
		return nil, fmt.Errorf("nil estimator: %w", ErrRegistry)
	}
	return r.addVersion(modelName, id, net, est)
}

func (r *Registry) addVersion(modelName, id string, net *nn.Network, est core.Estimator) (*Version, error) {
	if modelName == "" || id == "" {
		return nil, fmt.Errorf("empty model or version name: %w", ErrRegistry)
	}
	m, err := r.ensureModelKeepObsVar(modelName)
	if err != nil {
		return nil, err
	}

	fp := net.Fingerprint()
	m.mu.Lock()
	if old, ok := m.versions[id]; ok && old.Fingerprint == fp {
		m.mu.Unlock()
		return old, nil
	}
	obsVar := m.obsVar
	quantized := m.quantized || r.cfg.EnableQuantized
	m.mu.Unlock()

	// Build and warm outside the model lock: loading big models must not
	// stall the serving path's mutations.
	v, err := r.buildVersion(id, net, obsVar, quantized, est)
	if err != nil {
		return nil, err
	}

	// Registration holds the registry read-lock so it cannot interleave with
	// Close: either the version lands before Close snapshots the models (and
	// Close drains it), or Close already began and the version is discarded.
	r.mu.RLock()
	if r.closed {
		r.mu.RUnlock()
		v.retire(nil)
		return nil, ErrClosed
	}
	m.mu.Lock()
	old := m.versions[id]
	m.versions[id] = v
	if old == nil {
		m.order = append(m.order, id)
	} else {
		// The displaced object may still be routed; it keeps serving until
		// the next SetRoutes swaps in a table that no longer names it.
		m.displaced = append(m.displaced, old)
	}
	n := len(m.versions)
	m.mu.Unlock()
	r.drains.Add(1)
	r.mu.RUnlock()
	r.cfg.Metrics.setVersions(modelName, n)
	return v, nil
}

// ensureModelKeepObsVar is ensureModel preserving an existing model's obsVar.
func (r *Registry) ensureModelKeepObsVar(name string) (*model, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, ErrClosed
	}
	m, ok := r.models[name]
	if !ok {
		m = &model{name: name, versions: make(map[string]*Version)}
		r.models[name] = m
	}
	return m, nil
}

// SetObsVar sets the observation-noise variance applied to versions of the
// named model added from now on (existing versions keep the estimator they
// were built with).
func (r *Registry) SetObsVar(modelName string, obsVar float64) error {
	_, err := r.ensureModel(modelName, obsVar)
	return err
}

// SetQuantized opts versions of the named model added from now on into (or
// out of) the fixed-point serving path, independent of the registry-wide
// Config.EnableQuantized default. Existing versions keep the path they were
// built with; re-adding a version under the same ID rebuilds it on the new
// setting only if its fingerprint changed.
func (r *Registry) SetQuantized(modelName string, enabled bool) error {
	m, err := r.ensureModelKeepObsVar(modelName)
	if err != nil {
		return err
	}
	m.mu.Lock()
	m.quantized = enabled
	m.mu.Unlock()
	return nil
}

// buildVersion assembles estimator + pool, installs the quantized program
// when asked, and runs the warmup inference. Everything here happens before
// registration — off the serving path — so a hot reload quantizes and warms
// while the displaced version keeps serving.
func (r *Registry) buildVersion(id string, net *nn.Network, obsVar float64, quantized bool, est core.Estimator) (*Version, error) {
	var ap *core.ApDeepSense
	var releaseQuantized func()
	if est == nil {
		var err error
		if ap, err = core.NewApDeepSense(net, r.cfg.Options, obsVar); err != nil {
			return nil, fmt.Errorf("registry: version %s: %w", id, err)
		}
		if quantized {
			releaseQuantized, err = r.quantFor(id, ap, net.Fingerprint())
			if err != nil {
				// Fall back to float serving: oversized weights that overflow
				// the fixed-point scheme degrade to the slower path, they
				// never fail the load.
				r.cfg.Metrics.quantizedBuild("fallback")
				releaseQuantized = nil
			}
		}
		est = ap
	}
	if !r.cfg.SkipWarmup {
		// One propagation over an all-ones input proves the version can serve
		// (catching inconsistent weights the load path let through) and
		// primes the propagator's tables before traffic routes here. The
		// input is ones, not zeros: the blocked kernels skip zero scalars, so
		// a zero warmup would never touch (and never expose) a poisoned
		// weight. With a quantized program installed, dispatch routes this
		// through the fixed-point path, so routability is gated on the
		// program the version will actually serve on.
		ones := make(tensor.Vector, net.InputDim())
		for i := range ones {
			ones[i] = 1
		}
		g, err := est.Predict(ones)
		if err != nil {
			return nil, failBuild(fmt.Errorf("registry: version %s warmup: %w", id, err), releaseQuantized)
		}
		if err := g.Validate(); err != nil {
			return nil, failBuild(fmt.Errorf("registry: version %s warmup output: %w", id, err), releaseQuantized)
		}
	}
	// Hooks go on only after the build-time work: the warmup is not serving
	// traffic, and must not inflate batch-size or layer-timing metrics fed
	// by the hooks.
	if ap != nil && r.cfg.Hooks != nil {
		ap.Propagator().SetHooks(r.cfg.Hooks)
	}
	coal, err := serve.NewPredict(est, r.cfg.Serve)
	if err != nil {
		return nil, failBuild(fmt.Errorf("registry: version %s pool: %w", id, err), releaseQuantized)
	}
	v := newVersion(id, net, est, coal)
	v.releaseQuantized = releaseQuantized
	return v, nil
}

// failBuild releases the program-cache reference a failed build would
// otherwise leak, then passes the error through.
func failBuild(err error, release func()) error {
	if release != nil {
		release()
	}
	return err
}

// retireVersion retires v and updates the drain accounting.
func (r *Registry) retireVersion(modelName string, v *Version) {
	v.retire(func() { r.drains.Done() })
}

// SetRoutes atomically installs the model's traffic policy: current must
// name a registered version; canary (with weight in (0, 1]) and shadow are
// optional (""). The swap is one pointer store — requests admitted before it
// finish on their version, requests after it route by the new table.
func (r *Registry) SetRoutes(modelName, current, canary string, canaryWeight float64, shadow string) error {
	m, err := r.lookup(modelName)
	if err != nil {
		return err
	}
	m.mu.Lock()
	rt := &routeTable{}
	rt.current = m.versions[current]
	if rt.current == nil {
		m.mu.Unlock()
		return fmt.Errorf("model %q: current version %q: %w", modelName, current, ErrNotFound)
	}
	if canary != "" {
		if !(canaryWeight > 0 && canaryWeight <= 1) {
			m.mu.Unlock()
			return fmt.Errorf("model %q: canary weight %v outside (0, 1]: %w", modelName, canaryWeight, ErrRegistry)
		}
		rt.canary = m.versions[canary]
		if rt.canary == nil {
			m.mu.Unlock()
			return fmt.Errorf("model %q: canary version %q: %w", modelName, canary, ErrNotFound)
		}
		rt.canaryWeight = canaryWeight
	}
	if shadow != "" {
		rt.shadow = m.versions[shadow]
		if rt.shadow == nil {
			m.mu.Unlock()
			return fmt.Errorf("model %q: shadow version %q: %w", modelName, shadow, ErrNotFound)
		}
	}
	m.route.Store(rt)
	// Route IDs resolved against m.versions, so the new table can only name
	// live objects; every displaced object is now unreachable and drains.
	displaced := m.displaced
	m.displaced = nil
	m.mu.Unlock()
	for _, v := range displaced {
		r.retireVersion(modelName, v)
	}
	r.cfg.Metrics.swapped(modelName)
	return nil
}

// RemoveVersion unregisters version id of the model and retires it (drain in
// the background). It refuses to remove a version the route table still
// names.
func (r *Registry) RemoveVersion(modelName, id string) error {
	m, err := r.lookup(modelName)
	if err != nil {
		return err
	}
	m.mu.Lock()
	v, ok := m.versions[id]
	if !ok {
		m.mu.Unlock()
		return fmt.Errorf("model %q: version %q: %w", modelName, id, ErrNotFound)
	}
	if rt := m.route.Load(); rt != nil && (rt.current == v || rt.canary == v || rt.shadow == v) {
		m.mu.Unlock()
		return fmt.Errorf("model %q: version %q is routed: %w", modelName, id, ErrRegistry)
	}
	delete(m.versions, id)
	for i, o := range m.order {
		if o == id {
			m.order = append(m.order[:i], m.order[i+1:]...)
			break
		}
	}
	n := len(m.versions)
	m.mu.Unlock()
	r.cfg.Metrics.setVersions(modelName, n)
	r.retireVersion(modelName, v)
	return nil
}

// RemoveModel unroutes and retires every version of the model and deletes
// the entry.
func (r *Registry) RemoveModel(modelName string) error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return ErrClosed
	}
	m, ok := r.models[modelName]
	if ok {
		delete(r.models, modelName)
	}
	r.mu.Unlock()
	if !ok {
		return fmt.Errorf("model %q: %w", modelName, ErrNotFound)
	}
	m.mu.Lock()
	m.route.Store(nil)
	vs := make([]*Version, 0, len(m.versions)+len(m.displaced))
	for _, v := range m.versions {
		vs = append(vs, v)
	}
	vs = append(vs, m.displaced...)
	m.versions = make(map[string]*Version)
	m.order = nil
	m.displaced = nil
	m.mu.Unlock()
	r.cfg.Metrics.setVersions(modelName, 0)
	for _, v := range vs {
		r.retireVersion(modelName, v)
	}
	return nil
}

// maxRouteRetries bounds how many stale-snapshot races one request will
// chase. A retry only happens when a swap retired the picked version between
// the snapshot load and admission — consecutive losses require back-to-back
// swaps inside that microsecond window, so 8 is effectively unreachable.
const maxRouteRetries = 8

// Predict routes one request: picks current or canary by hashing key, admits
// it to that version's pool, and (if a shadow is configured) duplicates the
// request to the shadow version in the background. The returned Served tag
// identifies exactly which version produced the response; the result is
// bit-identical to that version's Estimator().Predict.
func (r *Registry) Predict(ctx context.Context, modelName, key string, x tensor.Vector) (core.GaussianVec, Served, error) {
	m, err := r.lookup(modelName)
	if err != nil {
		return core.GaussianVec{}, Served{}, err
	}
	for range [maxRouteRetries]struct{}{} {
		rt := m.route.Load()
		if rt == nil {
			return core.GaussianVec{}, Served{}, fmt.Errorf("model %q: %w", modelName, ErrNotReady)
		}
		v, route := rt.pick(key)
		if !v.tryAcquire() {
			continue // lost a swap race; reload the fresh snapshot
		}
		g, err := v.coal.Do(ctx, x)
		if err == nil && rt.shadow != nil && rt.shadow != v {
			r.submitShadow(m, rt.shadow, x, g)
		}
		served := Served{Model: modelName, Version: v.ID, Fingerprint: v.Fingerprint, Route: route}
		v.release()
		if errors.Is(err, serve.ErrClosed) {
			continue // the version drained between acquire and admission
		}
		if err == nil {
			r.cfg.Metrics.served(modelName, route)
		}
		return g, served, err
	}
	return core.GaussianVec{}, Served{}, fmt.Errorf("model %q: route retries exhausted: %w", modelName, ErrNotReady)
}

// PredictBatch routes a multi-row request the same way: all rows are served
// by one version (the one the key hashes to), admitted all-or-nothing into
// its pool.
func (r *Registry) PredictBatch(ctx context.Context, modelName, key string, xs []tensor.Vector) ([]core.GaussianVec, Served, error) {
	m, err := r.lookup(modelName)
	if err != nil {
		return nil, Served{}, err
	}
	for range [maxRouteRetries]struct{}{} {
		rt := m.route.Load()
		if rt == nil {
			return nil, Served{}, fmt.Errorf("model %q: %w", modelName, ErrNotReady)
		}
		v, route := rt.pick(key)
		if !v.tryAcquire() {
			continue
		}
		gs, err := v.coal.DoBatch(ctx, xs)
		if err == nil && rt.shadow != nil && rt.shadow != v {
			for i, x := range xs {
				r.submitShadow(m, rt.shadow, x, gs[i])
			}
		}
		served := Served{Model: modelName, Version: v.ID, Fingerprint: v.Fingerprint, Route: route}
		v.release()
		if errors.Is(err, serve.ErrClosed) {
			continue
		}
		if err == nil {
			r.cfg.Metrics.served(modelName, route)
		}
		return gs, served, err
	}
	return nil, Served{}, fmt.Errorf("model %q: route retries exhausted: %w", modelName, ErrNotReady)
}

// shadowJob is one queued background comparison: the duplicated input and
// the primary response to diff against. The job holds a reference on the
// shadow version until it completes.
type shadowJob struct {
	model   *model
	v       *Version
	x       tensor.Vector
	primary core.GaussianVec
}

// submitShadow queues a duplicate of the request against the shadow version.
// Never blocks: a full buffer drops the duplicate (counted), keeping the
// primary path's latency unaffected by shadow load.
func (r *Registry) submitShadow(m *model, shadow *Version, x tensor.Vector, primary core.GaussianVec) {
	if !shadow.tryAcquire() {
		return // shadow already draining; nothing to compare against
	}
	job := shadowJob{model: m, v: shadow, x: x.Clone(), primary: primary}
	select {
	case r.shadowJobs <- job:
	default:
		shadow.release()
		r.cfg.Metrics.shadowDrop(m.name)
	}
}

// shadowWorker runs queued comparisons until the registry closes the
// channel (after every possible submitter has finished).
func (r *Registry) shadowWorker() {
	defer r.shadowWG.Done()
	for job := range r.shadowJobs {
		ctx, cancel := context.WithTimeout(context.Background(), shadowJobTimeout)
		g, err := job.v.coal.Do(ctx, job.x)
		cancel()
		if err == nil {
			for i := range g.Mean {
				dMean := g.Mean[i] - job.primary.Mean[i]
				if dMean < 0 {
					dMean = -dMean
				}
				dStd := math.Sqrt(g.Var[i]) - math.Sqrt(job.primary.Var[i])
				if dStd < 0 {
					dStd = -dStd
				}
				r.cfg.Metrics.drift(job.model.name, dMean, dStd)
			}
			r.cfg.Metrics.shadowDone(job.model.name)
		}
		job.v.release()
	}
}

// Ready reports whether at least one model has a routable current version —
// the /readyz condition.
func (r *Registry) Ready() bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if r.closed {
		return false
	}
	for _, m := range r.models {
		if rt := m.route.Load(); rt != nil && rt.current != nil && !rt.current.retired.Load() {
			return true
		}
	}
	return false
}

// VersionStatus describes one registered version in listings.
type VersionStatus struct {
	ID          string `json:"id"`
	Fingerprint string `json:"fingerprint"`
	QueueDepth  int    `json:"queue_depth"`
	Draining    bool   `json:"draining"`
	// Quantized reports whether the version serves on the fixed-point path.
	Quantized bool `json:"quantized,omitempty"`
}

// ModelStatus describes one model's routing state in listings.
type ModelStatus struct {
	Name               string          `json:"name"`
	Summary            string          `json:"summary"`
	Params             int64           `json:"params"`
	InputDim           int             `json:"input_dim"`
	OutputDim          int             `json:"output_dim"`
	Current            string          `json:"current"`
	CurrentFingerprint string          `json:"current_fingerprint"`
	Canary             string          `json:"canary,omitempty"`
	CanaryWeight       float64         `json:"canary_weight,omitempty"`
	Shadow             string          `json:"shadow,omitempty"`
	Versions           []VersionStatus `json:"versions"`
}

// Models lists every registered model's routing state, sorted by name.
func (r *Registry) Models() []ModelStatus {
	r.mu.RLock()
	entries := make([]*model, 0, len(r.models))
	for _, m := range r.models {
		entries = append(entries, m)
	}
	r.mu.RUnlock()
	sort.Slice(entries, func(i, j int) bool { return entries[i].name < entries[j].name })
	out := make([]ModelStatus, 0, len(entries))
	for _, m := range entries {
		out = append(out, m.status())
	}
	return out
}

// Model returns one model's routing state.
func (r *Registry) Model(name string) (ModelStatus, error) {
	m, err := r.lookup(name)
	if err != nil {
		return ModelStatus{}, err
	}
	return m.status(), nil
}

func (m *model) status() ModelStatus {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := ModelStatus{Name: m.name}
	rt := m.route.Load()
	if rt != nil && rt.current != nil {
		st.Current = rt.current.ID
		st.CurrentFingerprint = rt.current.Fingerprint
		st.Summary = rt.current.net.Summary()
		st.Params = rt.current.net.Params()
		st.InputDim = rt.current.net.InputDim()
		st.OutputDim = rt.current.net.OutputDim()
		if rt.canary != nil {
			st.Canary = rt.canary.ID
			st.CanaryWeight = rt.canaryWeight
		}
		if rt.shadow != nil {
			st.Shadow = rt.shadow.ID
		}
	}
	for _, id := range m.order {
		v := m.versions[id]
		st.Versions = append(st.Versions, VersionStatus{
			ID:          v.ID,
			Fingerprint: v.Fingerprint,
			QueueDepth:  v.coal.Depth(),
			Draining:    v.retired.Load(),
			Quantized:   v.Quantized(),
		})
	}
	return st
}

// Version returns the registered version object (for tests and benchmarks
// that compare served responses against direct propagation).
func (r *Registry) Version(modelName, id string) (*Version, error) {
	m, err := r.lookup(modelName)
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	v, ok := m.versions[id]
	if !ok {
		return nil, fmt.Errorf("model %q: version %q: %w", modelName, id, ErrNotFound)
	}
	return v, nil
}

// Close stops intake, unroutes everything, drains every version's pool, and
// stops the shadow workers — bounded by ctx. After Close every registry
// method fails with ErrClosed.
func (r *Registry) Close(ctx context.Context) error {
	r.mu.Lock()
	alreadyClosed := r.closed
	r.closed = true
	models := make([]*model, 0, len(r.models))
	for _, m := range r.models {
		models = append(models, m)
	}
	r.models = make(map[string]*model)
	r.mu.Unlock()

	for _, m := range models {
		m.mu.Lock()
		m.route.Store(nil)
		vs := make([]*Version, 0, len(m.versions)+len(m.displaced))
		for _, v := range m.versions {
			vs = append(vs, v)
		}
		vs = append(vs, m.displaced...)
		m.versions = make(map[string]*Version)
		m.order = nil
		m.displaced = nil
		m.mu.Unlock()
		for _, v := range vs {
			r.retireVersion(m.name, v)
		}
	}

	// Every Predict holds a version reference while it might submit a shadow
	// job, so once all drains finish no submitter remains and the job channel
	// can close; the workers then finish the buffered comparisons and exit.
	done := make(chan struct{})
	go func() {
		r.drains.Wait()
		if !alreadyClosed {
			close(r.shadowJobs)
		}
		r.shadowWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("registry: drain interrupted: %w", ctx.Err())
	}
}

// Server example: an HTTP inference microservice exposing uncertainty-aware
// predictions, the shape of an IoT-gateway deployment. All serving flows
// through a model registry (internal/registry): every model version gets its
// own propagator and request-coalescer pool, versions hot-swap atomically
// (in-flight requests finish on the version that admitted them; old versions
// drain in the background), and traffic policy per model supports a weighted
// canary split and shadow comparison against a candidate version.
//
//	POST /predict                        legacy single-model endpoint → model "default"
//	POST /v1/models/{name}/predict       {"input": [..]} or {"inputs": [[..],..]}
//	GET  /v1/models                      registered models, routes, fingerprints
//	POST /v1/models/{name}/reload        admin: force a manifest reload
//	POST /v1/sessions/{id}/ingest        resident session fleet: ingest one sample (sessions.go)
//	DELETE /v1/sessions/{id}             evict a device's session
//	GET  /v1/sessions                    fleet stats
//	GET  /livez                          process liveness (always 200)
//	GET  /readyz                         200 once a model has a routable version
//	GET  /healthz                        alias for /readyz (fingerprint as ETag)
//	GET  /metrics                        Prometheus text exposition
//	GET  /debug/pprof/                   runtime profiling endpoints
//
// The model set comes from one of three sources: -manifest points at a
// registry.json describing models, version files, and routes (polled for
// changes every -watch-interval, so edits hot-reload without restarts);
// -model serves one serialized network as model "default"; with neither, a
// small demo model is trained at startup.
//
// Both /predict forms feed the admitted version's flush pipeline: a request
// coalescer (internal/serve) enqueues every row and flushes the queue as a
// single matrix-level PropagateBatch pass. Responses are tagged with the
// model, version, fingerprint, and route that served them — and are
// bit-identical to a direct Predict on that version. A full queue rejects
// with 429 instead of buffering unboundedly. SIGINT/SIGTERM drains every
// pool before exiting, so accepted requests still get answers.
//
// Every route is wrapped by the observability middleware (examples/server
// obs.go): request IDs, per-route latency/status metrics, per-request trace
// spans, and one structured JSON access-log line per request. The registry
// adds swap/reload/shadow-drift metrics on the same /metrics page.
//
// Run with:
//
//	go run ./examples/server            # listens on :8080
//	curl -s localhost:8080/predict -d '{"input":[0.3]}'
//	curl -s localhost:8080/v1/models
//	curl -s localhost:8080/v1/models/default/predict -d '{"inputs":[[0.3],[-1.2]]}'
//	curl -s localhost:8080/metrics
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"log/slog"
	"math"
	"math/rand"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"syscall"
	"time"

	apds "github.com/apdeepsense/apdeepsense"
)

// defaultModel is the registry name the legacy /predict endpoint and the
// -model / demo startup modes use.
const defaultModel = "default"

// service bundles the model registry with the observability state (metrics
// registry, structured logger). All prediction traffic flows through reg,
// which owns one coalescer pool per model version.
type service struct {
	reg     *apds.ModelRegistry
	loader  *apds.ModelManifestLoader // nil unless -manifest is set
	device  *apds.Device
	metrics *serverMetrics
	logger  *slog.Logger
	// sessions is the resident device-session fleet (nil unless configured
	// via the manifest "sessions" block or the -sessions flags; see
	// sessions.go).
	sessions   *apds.SessionManager
	sessionCfg *sessionSettings
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	modelPath := flag.String("model", "", "serialized model to serve as \"default\" (trains a demo model if empty)")
	manifestPath := flag.String("manifest", "", "registry manifest (registry.json) describing models, versions, and routes")
	watchInterval := flag.Duration("watch-interval", 2*time.Second, "manifest poll interval (0 disables hot-reload)")
	maxBatch := flag.Int("max-batch", 64, "coalescer: max rows per flush")
	queueDepth := flag.Int("queue-depth", 0, "coalescer: queued-row bound before 429s (0 = 4x max-batch)")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "shutdown: bound on connection + queue drain")
	sessionsOn := flag.Bool("sessions", false, "enable the resident session fleet in -model/demo modes (manifest mode uses the \"sessions\" block instead)")
	sessionChannels := flag.Int("session-channels", 1, "sessions: channels per sample")
	sessionLength := flag.Int("session-length", 1, "sessions: samples per window")
	sessionStride := flag.Int("session-stride", 1, "sessions: samples between windows")
	sessionStandardize := flag.Bool("session-standardize", true, "sessions: per-session window standardization")
	sessionIdle := flag.Duration("session-idle", 0, "sessions: evict sessions idle this long (0 = never)")
	sessionSnapshot := flag.String("session-snapshot", "", "sessions: fleet snapshot path (restore at startup, write on shutdown)")
	sessionSnapshotEvery := flag.Duration("session-snapshot-interval", 0, "sessions: periodic snapshot interval (0 = only on shutdown)")
	flag.Parse()
	log.SetFlags(0)
	log.SetPrefix("apds-server: ")

	var sess *sessionSettings
	if *sessionsOn {
		sess = &sessionSettings{
			model: defaultModel,
			cfg: apds.SessionConfig{
				Channels: *sessionChannels, Length: *sessionLength, Stride: *sessionStride,
				Standardize: *sessionStandardize,
				IdleTimeout: *sessionIdle,
			},
			snapshotPath:     *sessionSnapshot,
			snapshotInterval: *sessionSnapshotEvery,
		}
	}
	svc, err := newService(*modelPath, *manifestPath, apds.ServeConfig{
		MaxBatch:   *maxBatch,
		QueueDepth: *queueDepth,
	}, sess)
	if err != nil {
		log.Fatal(err)
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           svc.mux(),
		ReadHeaderTimeout: 5 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if svc.loader != nil && *watchInterval > 0 {
		go svc.loader.Watch(ctx, *watchInterval, log.Printf)
	}
	svc.startSessionLoops(ctx)

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	for _, st := range svc.reg.Models() {
		log.Printf("serving model %q version %s (%s) on %s", st.Name, st.Current, st.Summary, *addr)
	}

	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
	}
	stop() // a second signal kills immediately instead of re-draining

	// Graceful drain: stop accepting connections, let in-flight handlers
	// finish, then drain every version's coalescer pool so every accepted
	// request is answered before the process exits.
	log.Print("shutdown signal: draining")
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	// The fleet snapshots before the registry drains: handlers are done, so
	// the sessions are quiescent, and the final snapshot needs no predictions.
	if err := svc.closeSessions(drainCtx); err != nil {
		log.Printf("session shutdown: %v", err)
	}
	if err := svc.close(drainCtx); err != nil {
		log.Printf("registry drain: %v", err)
	}
	log.Print("drained")
}

// newService assembles the registry-backed stack. sess enables the resident
// session fleet for -model/demo modes; in manifest mode the manifest's
// "sessions" block takes precedence (the fleet's window shape and gate
// policy belong with the model routing they apply to).
func newService(modelPath, manifestPath string, serveCfg apds.ServeConfig, sess *sessionSettings) (*service, error) {
	m := newServerMetrics()
	serveCfg.Metrics = apds.NewServeMetrics(m.reg)
	reg := apds.NewModelRegistry(apds.ModelRegistryConfig{
		Serve:   serveCfg,
		Metrics: apds.NewModelRegistryMetrics(m.reg),
		// Every version's propagator reports per-layer wall time, batch
		// sizes, and scratch reuse straight into the /metrics registry.
		Hooks: m.hooks(),
	})
	svc := &service{
		reg:     reg,
		device:  apds.NewEdison(),
		metrics: m,
		logger:  slog.New(slog.NewJSONHandler(os.Stderr, nil)),
	}

	if manifestPath != "" {
		if modelPath != "" {
			return nil, errors.New("set -manifest or -model, not both")
		}
		svc.loader = apds.NewModelManifestLoader(reg, manifestPath)
		if _, err := svc.loader.Reload(true); err != nil {
			return nil, err
		}
		// Session config rides in the manifest. It is read once at startup:
		// the fleet's resident state (window rings, gate moments) is bound to
		// its window shape, so reshaping it hot would invalidate every session.
		man, err := apds.LoadModelManifest(manifestPath)
		if err != nil {
			return nil, err
		}
		if man.Sessions != nil {
			if sess, err = sessionSettingsFromManifest(man.Sessions, filepath.Dir(manifestPath)); err != nil {
				return nil, err
			}
		} else {
			sess = nil
		}
		if sess != nil {
			if err := svc.initSessions(sess); err != nil {
				return nil, err
			}
		}
		return svc, nil
	}

	var net *apds.Network
	var err error
	if modelPath != "" {
		net, err = apds.LoadModel(modelPath)
	} else {
		net, err = trainDemoModel()
	}
	if err != nil {
		return nil, err
	}
	if _, err := reg.AddVersion(defaultModel, "v1", net); err != nil {
		return nil, err
	}
	if err := reg.SetRoutes(defaultModel, "v1", "", 0, ""); err != nil {
		return nil, err
	}
	if sess != nil {
		if err := svc.initSessions(sess); err != nil {
			return nil, err
		}
	}
	return svc, nil
}

// close drains the registry: intake stops, every version's queued requests
// flush, and the call returns when the pools are empty (or ctx expires).
func (s *service) close(ctx context.Context) error { return s.reg.Close(ctx) }

// mux assembles the route table with every route instrumented. The pprof
// endpoints come from net/http/pprof, wired explicitly because the server
// uses its own mux rather than http.DefaultServeMux.
func (s *service) mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/predict", s.instrument("/predict", s.handlePredict))
	mux.HandleFunc("GET /v1/models", s.instrument("/v1/models", s.handleModels))
	mux.HandleFunc("POST /v1/models/{name}/predict", s.instrument("/v1/models/{name}/predict", s.handleModelPredict))
	mux.HandleFunc("POST /v1/models/{name}/reload", s.instrument("/v1/models/{name}/reload", s.handleModelReload))
	if s.sessions != nil {
		mux.HandleFunc("POST /v1/sessions/{id}/ingest", s.instrument("/v1/sessions/{id}/ingest", s.handleSessionIngest))
		mux.HandleFunc("DELETE /v1/sessions/{id}", s.instrument("/v1/sessions/{id}", s.handleSessionEvict))
		mux.HandleFunc("GET /v1/sessions", s.instrument("/v1/sessions", s.handleSessions))
	}
	mux.HandleFunc("GET /livez", s.instrument("/livez", s.handleLivez))
	mux.HandleFunc("GET /readyz", s.instrument("/readyz", s.handleReadyz))
	// /healthz predates the livez/readyz split and aliases readiness: a
	// load balancer probing it keeps exactly the old semantics (200 when
	// the service can answer predictions).
	mux.HandleFunc("/healthz", s.instrument("/healthz", s.handleReadyz))
	mux.HandleFunc("/metrics", s.instrument("/metrics", s.handleMetrics))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// trainDemoModel fits y = sin(3x) with a dropout network.
func trainDemoModel() (*apds.Network, error) {
	rng := rand.New(rand.NewSource(1))
	var samples []apds.TrainSample
	for i := 0; i < 800; i++ {
		x := rng.Float64()*4 - 2
		samples = append(samples, apds.TrainSample{
			X: apds.Vector{x},
			Y: apds.Vector{math.Sin(3*x) + 0.1*rng.NormFloat64()},
		})
	}
	net, err := apds.NewNetwork(apds.NetworkConfig{
		InputDim: 1, Hidden: []int{48, 48}, OutputDim: 1,
		Activation: apds.ActReLU, OutputActivation: apds.ActIdentity,
		KeepProb: 0.9, Seed: 2,
	})
	if err != nil {
		return nil, err
	}
	_, err = apds.Fit(net, samples, nil, apds.TrainConfig{
		Epochs: 25, BatchSize: 32, Seed: 1,
		Loss: apds.MSELoss(), Optimizer: apds.NewAdam(0.005),
	})
	return net, err
}

// maxRequestBytes bounds /predict request bodies: an unauthenticated gateway
// endpoint must not buffer arbitrarily large payloads. 1 MiB fits a batch of
// thousands of typical sensor windows.
const maxRequestBytes = 1 << 20

type predictRequest struct {
	Input  []float64   `json:"input"`
	Inputs [][]float64 `json:"inputs"`
}

type sampleResult struct {
	Mean []float64 `json:"mean"`
	Std  []float64 `json:"std"`
}

type predictResponse struct {
	Mean []float64 `json:"mean,omitempty"`
	Std  []float64 `json:"std,omitempty"`
	// Results holds per-sample outputs for batch ("inputs") requests.
	Results []sampleResult `json:"results,omitempty"`
	// Model/Version/Fingerprint/Route identify which registered version
	// served this request (the hot-swap audit trail).
	Model       string `json:"model"`
	Version     string `json:"version"`
	Fingerprint string `json:"fingerprint"`
	Route       string `json:"route"`
	// ModeledEdisonMs is the device model's per-inference latency estimate.
	ModeledEdisonMs float64 `json:"modeled_edison_ms"`
	// HostMicros is the actual service-side inference time.
	HostMicros int64 `json:"host_micros"`
}

// errBadRequest is the typed error class for every client-side /predict
// failure: decodePredict (and the handler's dimension checks) wrap all
// rejections in it, so callers — and the fuzz harness — can distinguish
// "bad payload" from an internal fault with errors.Is.
var errBadRequest = errors.New("bad request")

// decodePredict parses a /predict body that has already been wrapped with
// MaxBytesReader. It rejects payloads with trailing garbage after the JSON
// object, bodies over the size limit, non-finite values, and requests that
// set both or neither of "input" and "inputs". Every rejection wraps
// errBadRequest; decodePredict never panics on any input
// (FuzzDecodePredict).
func decodePredict(body io.Reader) (predictRequest, error) {
	var req predictRequest
	dec := json.NewDecoder(body)
	if err := dec.Decode(&req); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return req, fmt.Errorf("request body exceeds %d bytes: %w", tooLarge.Limit, errBadRequest)
		}
		return req, fmt.Errorf("malformed JSON: %v: %w", err, errBadRequest)
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return req, fmt.Errorf("trailing data after JSON object: %w", errBadRequest)
	}
	hasOne, hasBatch := req.Input != nil, req.Inputs != nil
	switch {
	case hasOne && hasBatch:
		return req, fmt.Errorf(`set either "input" or "inputs", not both: %w`, errBadRequest)
	case !hasOne && !hasBatch:
		return req, fmt.Errorf(`missing "input" or "inputs": %w`, errBadRequest)
	}
	// Standard JSON cannot encode NaN/Inf, but the finiteness contract is
	// part of this decoder's interface, not an accident of the wire format.
	for _, v := range req.Input {
		if !finite(v) {
			return req, fmt.Errorf("non-finite value in input: %w", errBadRequest)
		}
	}
	for i, row := range req.Inputs {
		for _, v := range row {
			if !finite(v) {
				return req, fmt.Errorf("non-finite value in inputs[%d]: %w", i, errBadRequest)
			}
		}
	}
	return req, nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// handlePredict is the legacy single-model endpoint: it serves the model
// named "default" through the registry.
func (s *service) handlePredict(w http.ResponseWriter, r *http.Request) {
	s.servePredict(w, r, defaultModel)
}

// handleModelPredict serves POST /v1/models/{name}/predict.
func (s *service) handleModelPredict(w http.ResponseWriter, r *http.Request) {
	s.servePredict(w, r, r.PathValue("name"))
}

// requestKey is the canary-split key: deterministic per request ID, so a
// caller that retries with the same X-Request-ID lands on the same route.
func requestKey(w http.ResponseWriter, r *http.Request) string {
	if id := r.Header.Get("X-Request-ID"); id != "" {
		return id
	}
	// instrument stores the assigned ID on the response header.
	return w.Header().Get("X-Request-ID")
}

func (s *service) servePredict(w http.ResponseWriter, r *http.Request, modelName string) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	tr := traceFrom(r.Context())

	span := tr.StartSpan("decode")
	req, err := decodePredict(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	span.End()
	if err != nil {
		http.Error(w, fmt.Sprintf("bad request: %v", err), http.StatusBadRequest)
		return
	}

	// Validate dimensions against the current version before enqueueing: a
	// wrong-size row must fail alone with a 400, not poison the co-batched
	// rows it would flush with.
	st, err := s.reg.Model(modelName)
	if err != nil {
		predictError(w, err)
		return
	}
	if st.InputDim > 0 {
		if req.Input != nil && len(req.Input) != st.InputDim {
			http.Error(w, fmt.Sprintf("input has %d values, model expects %d: %v",
				len(req.Input), st.InputDim, errBadRequest), http.StatusBadRequest)
			return
		}
		for i, x := range req.Inputs {
			if len(x) != st.InputDim {
				http.Error(w, fmt.Sprintf("inputs[%d] has %d values, model expects %d: %v",
					i, len(x), st.InputDim, errBadRequest), http.StatusBadRequest)
				return
			}
		}
	}

	var resp predictResponse
	var served apds.ModelServed
	key := requestKey(w, r)
	span = tr.StartSpan("predict")
	start := time.Now()
	if req.Input != nil {
		// The admitted version's coalescer merges this row with concurrently
		// arriving requests into one batched propagation pass; the result is
		// bit-identical to that version's direct Predict.
		g, sv, err := s.reg.Predict(r.Context(), modelName, key, req.Input)
		if err != nil {
			span.End()
			predictError(w, err)
			return
		}
		served = sv
		resp.Mean, resp.Std = g.Mean, stds(g)
	} else {
		inputs := make([]apds.Vector, len(req.Inputs))
		for i, x := range req.Inputs {
			inputs[i] = x
		}
		// Batch requests share the same flush pipeline: rows enter the queue
		// together (admitted all-or-nothing, all on one version) and may
		// merge with other requests' rows into the same matrix-level pass.
		gs, sv, err := s.reg.PredictBatch(r.Context(), modelName, key, inputs)
		if err != nil {
			span.End()
			predictError(w, err)
			return
		}
		served = sv
		resp.Results = make([]sampleResult, len(gs))
		for i, g := range gs {
			resp.Results[i] = sampleResult{Mean: g.Mean, Std: stds(g)}
		}
	}
	resp.HostMicros = time.Since(start).Microseconds()
	span.End()
	resp.Model, resp.Version = served.Model, served.Version
	resp.Fingerprint, resp.Route = served.Fingerprint, served.Route
	if v, err := s.reg.Version(served.Model, served.Version); err == nil {
		resp.ModeledEdisonMs = s.device.TimeMillis(v.Estimator().Cost())
	}

	span = tr.StartSpan("encode")
	defer span.End()
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(resp); err != nil {
		log.Printf("encode response: %v", err)
	}
}

// predictError writes err with its mapped status. Overload and
// unavailability responses (429/503) carry a Retry-After header so clients
// and load balancers back off for the advertised budget instead of hammering
// a saturated queue: the serve layer's drain estimate when the error carries
// one (queue-full rejections), a 1-second floor otherwise (startup,
// shutdown, cancelled requests).
func predictError(w http.ResponseWriter, err error) {
	status := predictStatus(err)
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", retryAfterSeconds(err))
	}
	http.Error(w, err.Error(), status)
}

// retryAfterSeconds renders an error's retry budget as the whole seconds
// HTTP Retry-After requires: the serve-layer hint rounded up, never below 1.
func retryAfterSeconds(err error) string {
	hint := time.Second
	if d, ok := apds.ServeRetryAfter(err); ok && d > hint {
		hint = d
	}
	return strconv.FormatInt(int64(math.Ceil(hint.Seconds())), 10)
}

// predictStatus maps registry and coalescer failures to HTTP semantics: an
// unknown model is 404, a batch with more rows than the queue can ever hold
// is 413 (not retryable), a full queue is overload (429, retryable after
// backoff), a model with no routable version, a closing registry, or an
// abandoned request context is the service (or model) going away (503), and
// anything else is an internal fault (500).
func predictStatus(err error) int {
	switch {
	case errors.Is(err, apds.ErrModelNotFound):
		return http.StatusNotFound
	case errors.Is(err, apds.ErrServeBatchTooLarge):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, apds.ErrServeQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, apds.ErrServeClosed),
		errors.Is(err, apds.ErrModelNotReady),
		errors.Is(err, apds.ErrModelRegistryClosed),
		errors.Is(err, context.Canceled),
		errors.Is(err, context.DeadlineExceeded):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// stds extracts per-dimension standard deviations.
func stds(g apds.GaussianVec) []float64 {
	out := make([]float64, g.Dim())
	for i := range out {
		out[i] = g.Std(i)
	}
	return out
}

// fingerprintETag condenses every model's current fingerprint into one
// ETag-style header value: probes and caches can watch for version swaps
// without parsing the body.
func fingerprintETag(models []apds.ModelStatus) string {
	tag := ""
	for _, st := range models {
		if st.CurrentFingerprint == "" {
			continue
		}
		if tag != "" {
			tag += ","
		}
		tag += st.Name + ":" + st.CurrentFingerprint
	}
	return `"` + tag + `"`
}

// handleModels serves GET /v1/models: every registered model's routing state,
// versions, and fingerprints.
func (s *service) handleModels(w http.ResponseWriter, _ *http.Request) {
	models := s.reg.Models()
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("ETag", fingerprintETag(models))
	if err := json.NewEncoder(w).Encode(map[string]any{"models": models}); err != nil {
		log.Printf("encode models: %v", err)
	}
}

// handleLivez is pure process liveness: the handler running is the check.
func (s *service) handleLivez(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleReadyz reports routable readiness: 200 once at least one model has a
// routable current version, 503 before the first route lands and after
// shutdown begins. /healthz aliases this handler.
func (s *service) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	models := s.reg.Models()
	ready := s.reg.Ready()
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("ETag", fingerprintETag(models))
	if !ready {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	if err := json.NewEncoder(w).Encode(map[string]any{
		"ready":  ready,
		"models": models,
	}); err != nil {
		log.Printf("encode readyz: %v", err)
	}
}

// handleModelReload serves POST /v1/models/{name}/reload: force a manifest
// reload (the whole manifest re-applies; content fingerprints make unchanged
// versions no-ops) and report the named model's resulting state.
func (s *service) handleModelReload(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if s.loader == nil {
		http.Error(w, "no manifest configured (-manifest): reload unavailable", http.StatusConflict)
		return
	}
	changed, err := s.loader.Reload(true)
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, apds.ErrModelManifest) {
			status = http.StatusBadRequest
		}
		http.Error(w, err.Error(), status)
		return
	}
	st, err := s.reg.Model(name)
	if err != nil {
		predictError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(map[string]any{
		"reloaded": changed,
		"model":    st,
	}); err != nil {
		log.Printf("encode reload: %v", err)
	}
}

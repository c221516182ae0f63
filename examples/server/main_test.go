package main

import (
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	apds "github.com/apdeepsense/apdeepsense"
)

func testNetwork(t *testing.T, seed int64) *apds.Network {
	t.Helper()
	net, err := apds.NewNetwork(apds.NetworkConfig{
		InputDim: 2, Hidden: []int{8}, OutputDim: 1,
		Activation: apds.ActReLU, OutputActivation: apds.ActIdentity,
		KeepProb: 0.9, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// emptyTestService wires the full registry-backed stack (metrics registry,
// propagator hooks, coalescer pools, discard logger) exactly as newService,
// but registers no model — readiness tests add their own. Warmup is skipped
// so metric counts stay exact.
func emptyTestService(t *testing.T, cfgs ...apds.ServeConfig) *service {
	t.Helper()
	var cfg apds.ServeConfig
	if len(cfgs) > 0 {
		cfg = cfgs[0]
	}
	m := newServerMetrics()
	cfg.Metrics = apds.NewServeMetrics(m.reg)
	reg := apds.NewModelRegistry(apds.ModelRegistryConfig{
		Serve:      cfg,
		Metrics:    apds.NewModelRegistryMetrics(m.reg),
		Hooks:      m.hooks(),
		SkipWarmup: true,
	})
	svc := &service{
		reg:     reg,
		device:  apds.NewEdison(),
		metrics: m,
		logger:  slog.New(slog.NewTextHandler(io.Discard, nil)),
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := svc.close(ctx); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	return svc
}

// testService is emptyTestService plus a routable "default" model, the shape
// most handler tests need.
func testService(t *testing.T, cfgs ...apds.ServeConfig) *service {
	t.Helper()
	svc := emptyTestService(t, cfgs...)
	if _, err := svc.reg.AddVersion(defaultModel, "v1", testNetwork(t, 3)); err != nil {
		t.Fatal(err)
	}
	if err := svc.reg.SetRoutes(defaultModel, "v1", "", 0, ""); err != nil {
		t.Fatal(err)
	}
	return svc
}

func post(t *testing.T, svc *service, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/predict", strings.NewReader(body))
	rec := httptest.NewRecorder()
	svc.handlePredict(rec, req)
	return rec
}

func TestHandlePredictSingle(t *testing.T) {
	rec := post(t, testService(t), `{"input":[0.5,-1]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var resp predictResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Mean) != 1 || len(resp.Std) != 1 || resp.Results != nil {
		t.Errorf("unexpected single response shape: %+v", resp)
	}
	if resp.Model != defaultModel || resp.Version != "v1" || resp.Fingerprint == "" || resp.Route != apds.ModelRouteCurrent {
		t.Errorf("missing serving tag: %+v", resp)
	}
}

// TestHandlePredictBatch checks the "inputs" form returns one result per
// sample, matching the single-sample endpoint.
func TestHandlePredictBatch(t *testing.T) {
	svc := testService(t)
	rec := post(t, svc, `{"inputs":[[0.5,-1],[2,0.25],[-3,1]]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var resp predictResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 3 || resp.Mean != nil {
		t.Fatalf("unexpected batch response shape: %+v", resp)
	}
	single := post(t, svc, `{"input":[0.5,-1]}`)
	var want predictResponse
	if err := json.Unmarshal(single.Body.Bytes(), &want); err != nil {
		t.Fatal(err)
	}
	if resp.Results[0].Mean[0] != want.Mean[0] || resp.Results[0].Std[0] != want.Std[0] {
		t.Errorf("batch result %v differs from single-sample result %v", resp.Results[0], want)
	}
}

// TestCoalescedMatchesDirect is the serving-path bit-identity contract at the
// handler level: a /predict response produced through the registry's
// coalescer pool carries exactly the moments the served version's estimator
// returns for the same input.
func TestCoalescedMatchesDirect(t *testing.T) {
	svc := testService(t)
	rec := post(t, svc, `{"input":[0.5,-1]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var resp predictResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	v, err := svc.reg.Version(resp.Model, resp.Version)
	if err != nil {
		t.Fatal(err)
	}
	if v.Fingerprint != resp.Fingerprint {
		t.Fatalf("response fingerprint %s != version fingerprint %s", resp.Fingerprint, v.Fingerprint)
	}
	want, err := v.Estimator().Predict(apds.Vector{0.5, -1})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Mean[0] != want.Mean[0] || resp.Std[0] != want.Std(0) {
		t.Errorf("coalesced response %v/%v, direct predict %v/%v",
			resp.Mean[0], resp.Std[0], want.Mean[0], want.Std(0))
	}
}

// blockingEstimator wraps an estimator so every Predict stalls until release
// closes, signalling started first — the lever that deterministically wedges
// a version pool's coalescer dispatcher for overload tests.
type blockingEstimator struct {
	apds.Estimator
	started chan struct{}
	release chan struct{}
}

func (b *blockingEstimator) Predict(x apds.Vector) (apds.GaussianVec, error) {
	b.started <- struct{}{}
	<-b.release
	return b.Estimator.Predict(x)
}

// TestHandlePredictQueueFull pins the overload contract end-to-end: with the
// dispatcher wedged in a flush and the queue at capacity, the next request
// gets 429 (not a hang, not a 500), and queued requests still complete once
// the flush returns.
func TestHandlePredictQueueFull(t *testing.T) {
	net := testNetwork(t, 3)
	inner, err := apds.New(net, apds.Options{})
	if err != nil {
		t.Fatal(err)
	}
	est := &blockingEstimator{
		Estimator: inner,
		started:   make(chan struct{}, 8),
		release:   make(chan struct{}),
	}
	svc := emptyTestService(t, apds.ServeConfig{MaxBatch: 1, QueueDepth: 1})
	v, err := svc.reg.AddVersionEstimator(defaultModel, "v1", net, est)
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.reg.SetRoutes(defaultModel, "v1", "", 0, ""); err != nil {
		t.Fatal(err)
	}

	// Request 1 flushes immediately (idle dispatcher) and wedges on the blocking
	// estimator; request 2 fills the one queue slot behind it.
	results := make(chan *httptest.ResponseRecorder, 2)
	for i := 0; i < 2; i++ {
		go func() { results <- post(t, svc, `{"input":[0.5,-1]}`) }()
		if i == 0 {
			<-est.started // the dispatcher is now wedged
		} else {
			deadline := time.Now().Add(5 * time.Second)
			for v.QueueDepth() != 1 {
				if time.Now().After(deadline) {
					t.Fatal("request 2 never queued")
				}
				time.Sleep(100 * time.Microsecond)
			}
		}
	}

	// Request 3 finds the queue full: 429 plus a Retry-After budget (whole
	// seconds, at least 1) so callers back off instead of hammering.
	if rec := post(t, svc, `{"input":[0.5,-1]}`); rec.Code != http.StatusTooManyRequests {
		t.Errorf("over-capacity status %d, want 429 (%s)", rec.Code, rec.Body)
	} else if ra, err := strconv.Atoi(rec.Header().Get("Retry-After")); err != nil || ra < 1 {
		t.Errorf("429 Retry-After = %q, want an integer >= 1", rec.Header().Get("Retry-After"))
	}

	close(est.release)
	for i := 0; i < 2; i++ {
		if rec := <-results; rec.Code != http.StatusOK {
			t.Errorf("queued request status %d, want 200 (%s)", rec.Code, rec.Body)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := svc.close(ctx); err != nil {
		t.Fatal(err)
	}
	// After drain, new requests are refused as unavailable — also with a
	// Retry-After so load balancers know the rejection is retryable.
	if rec := post(t, svc, `{"input":[0.5,-1]}`); rec.Code != http.StatusServiceUnavailable {
		t.Errorf("post-close status %d, want 503 (%s)", rec.Code, rec.Body)
	} else if rec.Header().Get("Retry-After") == "" {
		t.Error("503 response missing Retry-After header")
	}
}

// TestHandlePredictBatchTooLarge: under the default serve config (MaxBatch
// 64, QueueDepth 256) a 257-row request can never be admitted, so it gets a
// 413 with no Retry-After instead of a 429 that no retry could ever clear,
// while a 256-row request still fits and is served.
func TestHandlePredictBatchTooLarge(t *testing.T) {
	svc := testService(t)
	rows := func(n int) string {
		return `{"inputs":[` + strings.TrimSuffix(strings.Repeat(`[0.5,-1],`, n), ",") + `]}`
	}
	rec := post(t, svc, rows(257))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("257-row status %d, want 413 (%s)", rec.Code, rec.Body)
	}
	if ra := rec.Header().Get("Retry-After"); ra != "" {
		t.Errorf("413 carries Retry-After %q; the request can never be admitted", ra)
	}
	if rec := post(t, svc, rows(256)); rec.Code != http.StatusOK {
		t.Errorf("256-row status %d, want 200 (%s)", rec.Code, rec.Body)
	}
}

// TestPredictStatus pins the error → HTTP status mapping.
func TestPredictStatus(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{apds.ErrServeQueueFull, http.StatusTooManyRequests},
		{apds.ErrServeBatchTooLarge, http.StatusRequestEntityTooLarge},
		{apds.ErrServeClosed, http.StatusServiceUnavailable},
		{apds.ErrModelNotReady, http.StatusServiceUnavailable},
		{apds.ErrModelRegistryClosed, http.StatusServiceUnavailable},
		{apds.ErrModelNotFound, http.StatusNotFound},
		{context.Canceled, http.StatusServiceUnavailable},
		{context.DeadlineExceeded, http.StatusServiceUnavailable},
		{io.ErrUnexpectedEOF, http.StatusInternalServerError},
	}
	for _, c := range cases {
		if got := predictStatus(c.err); got != c.want {
			t.Errorf("predictStatus(%v) = %d, want %d", c.err, got, c.want)
		}
	}
}

// TestHandlePredictRejects pins the 400 paths: malformed JSON, trailing
// garbage after the object, both/neither input fields, wrong dimensions, and
// payloads over the MaxBytesReader limit.
func TestHandlePredictRejects(t *testing.T) {
	svc := testService(t)
	cases := map[string]string{
		"malformed":       `{"input":`,
		"trailing":        `{"input":[1,2]} extra`,
		"second object":   `{"input":[1,2]}{"input":[3,4]}`,
		"both fields":     `{"input":[1,2],"inputs":[[1,2]]}`,
		"neither field":   `{}`,
		"wrong dim":       `{"input":[1]}`,
		"wrong batch dim": `{"inputs":[[1,2],[3]]}`,
		"oversized":       `{"inputs":[[` + strings.Repeat("1,", maxRequestBytes/2) + `1]]}`,
	}
	for name, body := range cases {
		if rec := post(t, svc, body); rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", name, rec.Code, rec.Body)
		}
	}
}

func TestHandlePredictMethod(t *testing.T) {
	req := httptest.NewRequest(http.MethodGet, "/predict", nil)
	rec := httptest.NewRecorder()
	testService(t).handlePredict(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET status %d, want 405", rec.Code)
	}
}

// do sends one request through the full instrumented mux, so middleware,
// metrics, and routing are all exercised.
func do(t *testing.T, mux *http.ServeMux, method, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req := httptest.NewRequest(method, path, rd)
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, req)
	return rec
}

// TestModelPredictEndpoint drives the per-model route: the named model
// serves, an unknown model 404s, and responses are tagged with the serving
// version.
func TestModelPredictEndpoint(t *testing.T) {
	svc := testService(t)
	mux := svc.mux()

	rec := do(t, mux, http.MethodPost, "/v1/models/default/predict", `{"input":[0.5,-1]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var resp predictResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Model != defaultModel || resp.Version != "v1" || resp.Fingerprint == "" {
		t.Errorf("missing serving tag: %+v", resp)
	}

	if rec := do(t, mux, http.MethodPost, "/v1/models/nope/predict", `{"input":[0.5,-1]}`); rec.Code != http.StatusNotFound {
		t.Errorf("unknown model status %d, want 404 (%s)", rec.Code, rec.Body)
	}
	if rec := do(t, mux, http.MethodPost, "/v1/models/default/predict", `{"inputs":[[0.5,-1],[2,0.25]]}`); rec.Code != http.StatusOK {
		t.Errorf("batch status %d (%s)", rec.Code, rec.Body)
	}
}

// TestModelsEndpoint checks the listing carries routes and fingerprints and
// sets the fingerprint ETag.
func TestModelsEndpoint(t *testing.T) {
	svc := testService(t)
	mux := svc.mux()

	rec := do(t, mux, http.MethodGet, "/v1/models", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var listing struct {
		Models []apds.ModelStatus `json:"models"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &listing); err != nil {
		t.Fatal(err)
	}
	if len(listing.Models) != 1 {
		t.Fatalf("listing has %d models, want 1: %s", len(listing.Models), rec.Body)
	}
	st := listing.Models[0]
	if st.Name != defaultModel || st.Current != "v1" || st.CurrentFingerprint == "" || len(st.Versions) != 1 {
		t.Errorf("unexpected model status: %+v", st)
	}
	etag := rec.Header().Get("ETag")
	if !strings.Contains(etag, st.CurrentFingerprint) {
		t.Errorf("ETag %q does not carry fingerprint %s", etag, st.CurrentFingerprint)
	}
	if rec := do(t, mux, http.MethodPost, "/v1/models", ""); rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST /v1/models status %d, want 405", rec.Code)
	}
}

// TestReadinessLifecycle pins the probe semantics across the service's life:
// /livez is always 200; /readyz (and its /healthz alias) is 503 before the
// first version routes, 200 once one does, stays 200 across a hot-swap with
// traffic in flight, and drops back to 503 after shutdown.
func TestReadinessLifecycle(t *testing.T) {
	svc := emptyTestService(t)
	mux := svc.mux()

	if rec := do(t, mux, http.MethodGet, "/livez", ""); rec.Code != http.StatusOK {
		t.Errorf("livez before model: %d", rec.Code)
	}
	for _, path := range []string{"/readyz", "/healthz"} {
		if rec := do(t, mux, http.MethodGet, path, ""); rec.Code != http.StatusServiceUnavailable {
			t.Errorf("%s before model: status %d, want 503", path, rec.Code)
		}
	}

	// A registered-but-unrouted version is not ready yet (the startup
	// window: loaded, warmed, awaiting its first SetRoutes).
	if _, err := svc.reg.AddVersion(defaultModel, "v1", testNetwork(t, 3)); err != nil {
		t.Fatal(err)
	}
	if rec := do(t, mux, http.MethodGet, "/readyz", ""); rec.Code != http.StatusServiceUnavailable {
		t.Errorf("readyz with unrouted version: status %d, want 503", rec.Code)
	}
	if err := svc.reg.SetRoutes(defaultModel, "v1", "", 0, ""); err != nil {
		t.Fatal(err)
	}
	rec := do(t, mux, http.MethodGet, "/readyz", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("readyz after route: status %d (%s)", rec.Code, rec.Body)
	}
	var ready struct {
		Ready  bool               `json:"ready"`
		Models []apds.ModelStatus `json:"models"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &ready); err != nil {
		t.Fatal(err)
	}
	if !ready.Ready || len(ready.Models) != 1 {
		t.Errorf("unexpected readyz body: %s", rec.Body)
	}
	oldETag := rec.Header().Get("ETag")

	// Hot-swap under load: predictions and readiness must hold through the
	// entire swap — zero not-ready (or failed) responses.
	if _, err := svc.reg.AddVersion(defaultModel, "v2", testNetwork(t, 4)); err != nil {
		t.Fatal(err)
	}
	stopTraffic := make(chan struct{})
	var trafficWG sync.WaitGroup
	trafficWG.Add(1)
	go func() {
		defer trafficWG.Done()
		for {
			select {
			case <-stopTraffic:
				return
			default:
			}
			if rec := do(t, mux, http.MethodPost, "/predict", `{"input":[0.5,-1]}`); rec.Code != http.StatusOK {
				t.Errorf("predict during swap: status %d (%s)", rec.Code, rec.Body)
				return
			}
			if rec := do(t, mux, http.MethodGet, "/readyz", ""); rec.Code != http.StatusOK {
				t.Errorf("readyz during swap: status %d", rec.Code)
				return
			}
		}
	}()
	for i := 0; i < 10; i++ {
		target := "v1"
		if i%2 == 1 {
			target = "v2" // the loop ends on v2: a net version change
		}
		if err := svc.reg.SetRoutes(defaultModel, target, "", 0, ""); err != nil {
			t.Fatal(err)
		}
	}
	close(stopTraffic)
	trafficWG.Wait()
	if rec := do(t, mux, http.MethodGet, "/healthz", ""); rec.Header().Get("ETag") == oldETag {
		t.Error("ETag unchanged after hot-swap to a different version")
	}

	// After shutdown the probes must go not-ready (while /livez still
	// answers: the process is alive, just not serving).
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := svc.close(ctx); err != nil {
		t.Fatal(err)
	}
	if rec := do(t, mux, http.MethodGet, "/readyz", ""); rec.Code != http.StatusServiceUnavailable {
		t.Errorf("readyz after close: status %d, want 503", rec.Code)
	}
	if rec := do(t, mux, http.MethodGet, "/livez", ""); rec.Code != http.StatusOK {
		t.Errorf("livez after close: status %d, want 200", rec.Code)
	}
}

// writeTestManifest writes man as JSON to path.
func writeTestManifest(t *testing.T, path string, man apds.ModelManifest) {
	t.Helper()
	data, err := json.Marshal(man)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestManifestReloadSmoke is the hot-reload walkthrough as a test: start from
// a manifest, serve, rewrite the model file and manifest on disk, hit the
// admin reload endpoint, and observe the new fingerprint serving — zero
// downtime, same process. tools/check.sh runs this by name as the reload
// smoke test.
func TestManifestReloadSmoke(t *testing.T) {
	dir := t.TempDir()
	if err := testNetwork(t, 3).SaveFile(filepath.Join(dir, "a.model")); err != nil {
		t.Fatal(err)
	}
	manPath := filepath.Join(dir, "registry.json")
	writeTestManifest(t, manPath, apds.ModelManifest{Models: []apds.ModelManifestModel{{
		Name:     "demo",
		Versions: []apds.ModelManifestVersion{{ID: "v1", Path: "a.model"}},
		Current:  "v1",
	}}})

	svc, err := newService("", manPath, apds.ServeConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	svc.logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := svc.close(ctx); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	mux := svc.mux()

	rec := do(t, mux, http.MethodPost, "/v1/models/demo/predict", `{"input":[0.5,-1]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("initial predict: status %d (%s)", rec.Code, rec.Body)
	}
	var before predictResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &before); err != nil {
		t.Fatal(err)
	}

	// New weights under a new version id land on disk; the manifest flips
	// current to it.
	if err := testNetwork(t, 99).SaveFile(filepath.Join(dir, "b.model")); err != nil {
		t.Fatal(err)
	}
	writeTestManifest(t, manPath, apds.ModelManifest{Models: []apds.ModelManifestModel{{
		Name: "demo",
		Versions: []apds.ModelManifestVersion{
			{ID: "v1", Path: "a.model"},
			{ID: "v2", Path: "b.model"},
		},
		Current: "v2",
		Shadow:  "v1",
	}}})

	rec = do(t, mux, http.MethodPost, "/v1/models/demo/reload", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("reload: status %d (%s)", rec.Code, rec.Body)
	}
	var reload struct {
		Reloaded bool             `json:"reloaded"`
		Model    apds.ModelStatus `json:"model"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &reload); err != nil {
		t.Fatal(err)
	}
	if !reload.Reloaded || reload.Model.Current != "v2" || reload.Model.Shadow != "v1" {
		t.Fatalf("unexpected reload result: %s", rec.Body)
	}

	rec = do(t, mux, http.MethodPost, "/v1/models/demo/predict", `{"input":[0.5,-1]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("post-reload predict: status %d (%s)", rec.Code, rec.Body)
	}
	var after predictResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &after); err != nil {
		t.Fatal(err)
	}
	if after.Version != "v2" || after.Fingerprint == before.Fingerprint {
		t.Errorf("reload did not swap serving version: before %s/%s after %s/%s",
			before.Version, before.Fingerprint, after.Version, after.Fingerprint)
	}

	// Reload for a model the manifest doesn't declare is a 404.
	if rec := do(t, mux, http.MethodPost, "/v1/models/nope/reload", ""); rec.Code != http.StatusNotFound {
		t.Errorf("reload unknown model: status %d, want 404", rec.Code)
	}
}

// TestReloadWithoutManifest pins the admin endpoint's answer when the server
// was started from -model or the demo path: 409, not a crash.
func TestReloadWithoutManifest(t *testing.T) {
	svc := testService(t)
	rec := do(t, svc.mux(), http.MethodPost, "/v1/models/default/reload", "")
	if rec.Code != http.StatusConflict {
		t.Errorf("reload without manifest: status %d, want 409 (%s)", rec.Code, rec.Body)
	}
}

// TestMetricsEndpoint drives traffic through the mux and checks /metrics
// renders valid Prometheus exposition including request histograms, the
// per-layer propagation timings the hooks feed, and the registry families.
func TestMetricsEndpoint(t *testing.T) {
	svc := testService(t)
	mux := svc.mux()

	if rec := do(t, mux, http.MethodPost, "/predict", `{"input":[0.5,-1]}`); rec.Code != http.StatusOK {
		t.Fatalf("predict status %d: %s", rec.Code, rec.Body)
	}
	if rec := do(t, mux, http.MethodPost, "/predict", `{"inputs":[[0.5,-1],[2,0.25],[-3,1]]}`); rec.Code != http.StatusOK {
		t.Fatalf("batch predict status %d: %s", rec.Code, rec.Body)
	}
	if rec := do(t, mux, http.MethodPost, "/predict", `{"bad":`); rec.Code != http.StatusBadRequest {
		t.Fatalf("bad predict status %d", rec.Code)
	}

	rec := do(t, mux, http.MethodGet, "/metrics", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("metrics content type %q", ct)
	}
	text := rec.Body.String()
	for _, want := range []string{
		`apds_http_requests_total{route="/predict",code="200"} 2`,
		`apds_http_requests_total{route="/predict",code="400"} 1`,
		"# TYPE apds_http_request_seconds histogram",
		`apds_http_request_seconds_bucket{route="/predict",le="+Inf"} 3`,
		"# TYPE apds_propagate_layer_seconds histogram",
		`apds_propagate_layer_seconds_bucket{layer="0",le="+Inf"}`,
		`apds_propagate_layer_seconds_bucket{layer="1",le="+Inf"}`,
		// Both the single and the batch request flushed through the
		// coalescer onto the batched propagation path.
		"apds_predict_batch_rows_count 2",
		"apds_scratch_pool_gets_total",
		"apds_model_params",
		// Coalescer instrumentation: 2 flushes moved 4 rows total.
		"apds_serve_batch_rows_count 2",
		"apds_serve_batch_rows_sum 4",
		"apds_serve_queue_wait_seconds_count 4",
		"# TYPE apds_serve_flushes_total counter",
		"apds_serve_queue_depth 0",
		// Registry instrumentation: both successful requests routed current.
		`apds_registry_requests_total{model="default",route="current"} 2`,
		`apds_registry_versions{model="default"} 1`,
		"apds_registry_swaps_total",
		// The scrape itself is in flight while the registry renders.
		"apds_http_inflight_requests 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	// Basic exposition well-formedness: every non-comment line is
	// "name{labels} value" or "name value".
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if fields := strings.Fields(line); len(fields) != 2 {
			t.Errorf("malformed exposition line %q", line)
		}
	}
	// GET only.
	if rec := do(t, mux, http.MethodPost, "/metrics", ""); rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST /metrics status %d, want 405", rec.Code)
	}
}

// TestRequestID checks the middleware assigns IDs and honors incoming ones.
func TestRequestID(t *testing.T) {
	svc := testService(t)
	mux := svc.mux()

	rec := do(t, mux, http.MethodGet, "/healthz", "")
	if id := rec.Header().Get("X-Request-ID"); id == "" {
		t.Error("no X-Request-ID assigned")
	}

	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	req.Header.Set("X-Request-ID", "caller-id-7")
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, req)
	if id := rec.Header().Get("X-Request-ID"); id != "caller-id-7" {
		t.Errorf("X-Request-ID = %q, want caller-id-7", id)
	}
}

// TestPprofRoutes checks the profiling endpoints are wired.
func TestPprofRoutes(t *testing.T) {
	rec := do(t, testService(t).mux(), http.MethodGet, "/debug/pprof/", "")
	if rec.Code != http.StatusOK {
		t.Errorf("pprof index status %d", rec.Code)
	}
}

// TestConcurrentPredictMetrics hammers /predict and /metrics from parallel
// goroutines — the race-detector coverage tools/check.sh requires for the
// serving path (scrapes render the registry while hooks update it).
func TestConcurrentPredictMetrics(t *testing.T) {
	svc := testService(t)
	mux := svc.mux()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				var rec *httptest.ResponseRecorder
				switch i % 3 {
				case 0:
					rec = do(t, mux, http.MethodPost, "/predict", `{"input":[0.5,-1]}`)
				case 1:
					rec = do(t, mux, http.MethodPost, "/predict", `{"inputs":[[0.5,-1],[2,0.25]]}`)
				default:
					rec = do(t, mux, http.MethodGet, "/metrics", "")
				}
				if rec.Code != http.StatusOK {
					t.Errorf("worker %d req %d: status %d", w, i, rec.Code)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if got := svc.metrics.inflight.Value(); got != 0 {
		t.Errorf("inflight gauge = %v after drain, want 0", got)
	}
}

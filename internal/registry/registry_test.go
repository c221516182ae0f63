package registry

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"github.com/apdeepsense/apdeepsense/internal/conv"
	"github.com/apdeepsense/apdeepsense/internal/nn"
	"github.com/apdeepsense/apdeepsense/internal/obs"
	"github.com/apdeepsense/apdeepsense/internal/tensor"
)

// testNet builds a small distinct network per seed: different seeds give
// different weights, hence different fingerprints and different outputs.
func testNet(t testing.TB, seed int64) *nn.Network {
	t.Helper()
	net, err := nn.New(nn.Config{
		InputDim: 3, Hidden: []int{16}, OutputDim: 2,
		Activation: nn.ActReLU, OutputActivation: nn.ActIdentity,
		KeepProb: 0.9, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func closeRegistry(t testing.TB, r *Registry) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := r.Close(ctx); err != nil {
		t.Errorf("registry close: %v", err)
	}
}

func TestPredictRoutesToCurrent(t *testing.T) {
	r := New(Config{})
	defer closeRegistry(t, r)
	v1, err := r.AddVersion("m", "v1", testNet(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.SetRoutes("m", "v1", "", 0, ""); err != nil {
		t.Fatal(err)
	}

	x := tensor.Vector{0.3, -1.2, 0.5}
	g, served, err := r.Predict(context.Background(), "m", "req-1", x)
	if err != nil {
		t.Fatal(err)
	}
	if served.Version != "v1" || served.Route != RouteCurrent || served.Fingerprint != v1.Fingerprint {
		t.Errorf("served = %+v, want v1/current/%s", served, v1.Fingerprint)
	}
	want, err := v1.Estimator().Predict(x)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Mean {
		if math.Float64bits(g.Mean[i]) != math.Float64bits(want.Mean[i]) ||
			math.Float64bits(g.Var[i]) != math.Float64bits(want.Var[i]) {
			t.Errorf("dim %d: served (%v, %v) != direct (%v, %v)",
				i, g.Mean[i], g.Var[i], want.Mean[i], want.Var[i])
		}
	}
}

func TestPredictErrors(t *testing.T) {
	r := New(Config{})
	ctx := context.Background()
	x := tensor.Vector{0, 0, 0}

	if _, _, err := r.Predict(ctx, "nope", "k", x); !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown model: err = %v, want ErrNotFound", err)
	}
	if _, err := r.AddVersion("m", "v1", testNet(t, 1)); err != nil {
		t.Fatal(err)
	}
	// Registered but not routed: not ready.
	if _, _, err := r.Predict(ctx, "m", "k", x); !errors.Is(err, ErrNotReady) {
		t.Errorf("unrouted model: err = %v, want ErrNotReady", err)
	}
	if err := r.SetRoutes("m", "missing", "", 0, ""); !errors.Is(err, ErrNotFound) {
		t.Errorf("SetRoutes missing current: err = %v, want ErrNotFound", err)
	}
	if err := r.SetRoutes("m", "v1", "v1", 1.5, ""); !errors.Is(err, ErrRegistry) {
		t.Errorf("SetRoutes bad weight: err = %v, want ErrRegistry", err)
	}

	closeRegistry(t, r)
	if _, _, err := r.Predict(ctx, "m", "k", x); !errors.Is(err, ErrClosed) {
		t.Errorf("closed registry: err = %v, want ErrClosed", err)
	}
	if _, err := r.AddVersion("m", "v2", testNet(t, 2)); !errors.Is(err, ErrClosed) {
		t.Errorf("AddVersion after close: err = %v, want ErrClosed", err)
	}
}

// TestCanaryDeterministicSplit: the canary split is a pure function of the
// request key — the same key always lands on the same side — and a weighted
// split actually sends traffic both ways.
func TestCanaryDeterministicSplit(t *testing.T) {
	r := New(Config{})
	defer closeRegistry(t, r)
	if _, err := r.AddVersion("m", "v1", testNet(t, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := r.AddVersion("m", "v2", testNet(t, 2)); err != nil {
		t.Fatal(err)
	}
	if err := r.SetRoutes("m", "v1", "v2", 0.5, ""); err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	x := tensor.Vector{0.1, 0.2, 0.3}
	routes := make(map[string]string)
	counts := make(map[string]int)
	for round := 0; round < 3; round++ {
		for i := 0; i < 64; i++ {
			key := string(rune('a'+i%26)) + string(rune('0'+i/26))
			_, served, err := r.Predict(ctx, "m", key, x)
			if err != nil {
				t.Fatal(err)
			}
			if prev, ok := routes[key]; ok && prev != served.Route {
				t.Fatalf("key %q routed %s then %s: split not deterministic", key, prev, served.Route)
			}
			routes[key] = served.Route
			if round == 0 {
				counts[served.Route]++
			}
		}
	}
	if counts[RouteCurrent] == 0 || counts[RouteCanary] == 0 {
		t.Errorf("50%% split sent all 64 keys one way: %v", counts)
	}
}

// TestPredictBatchRoute: batch requests flow through the same routing and
// match direct batched prediction bit-for-bit.
func TestPredictBatchRoute(t *testing.T) {
	r := New(Config{})
	defer closeRegistry(t, r)
	v1, err := r.AddVersion("m", "v1", testNet(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.SetRoutes("m", "v1", "", 0, ""); err != nil {
		t.Fatal(err)
	}
	xs := []tensor.Vector{{0.5, -1, 0.25}, {2, 0.25, -0.5}, {-3, 1, 0}}
	gs, served, err := r.PredictBatch(context.Background(), "m", "batch-1", xs)
	if err != nil {
		t.Fatal(err)
	}
	if served.Version != "v1" || len(gs) != len(xs) {
		t.Fatalf("served %+v with %d results, want v1 with %d", served, len(gs), len(xs))
	}
	for i, x := range xs {
		want, err := v1.Estimator().Predict(x)
		if err != nil {
			t.Fatal(err)
		}
		for j := range want.Mean {
			if math.Float64bits(gs[i].Mean[j]) != math.Float64bits(want.Mean[j]) {
				t.Errorf("row %d dim %d: %v != direct %v", i, j, gs[i].Mean[j], want.Mean[j])
			}
		}
	}
}

// TestShadowRecordsDrift: with a shadow configured, requests are duplicated
// to the candidate in the background and the mean/σ drift lands in the
// metrics without the primary response changing.
func TestShadowRecordsDrift(t *testing.T) {
	reg := obs.NewRegistry()
	met := NewMetrics(reg)
	r := New(Config{Metrics: met})
	defer closeRegistry(t, r)
	v1, err := r.AddVersion("m", "v1", testNet(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	v2, err := r.AddVersion("m", "v2", testNet(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.SetRoutes("m", "v1", "", 0, "v2"); err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	x := tensor.Vector{0.7, -0.3, 1.1}
	const n = 10
	for i := 0; i < n; i++ {
		g, served, err := r.Predict(ctx, "m", "k", x)
		if err != nil {
			t.Fatal(err)
		}
		if served.Version != "v1" {
			t.Fatalf("shadow must not serve: got version %s", served.Version)
		}
		want, _ := v1.Estimator().Predict(x)
		if g.Mean[0] != want.Mean[0] {
			t.Fatalf("primary response changed under shadowing: %v != %v", g.Mean[0], want.Mean[0])
		}
	}

	// Shadow comparisons are asynchronous; wait for them to complete.
	deadline := time.Now().Add(10 * time.Second)
	for met.shadow.With("m").Value() < n {
		if time.Now().After(deadline) {
			t.Fatalf("shadow comparisons: %v of %d completed",
				met.shadow.With("m").Value(), n)
		}
		time.Sleep(time.Millisecond)
	}

	h := met.meanDrift.With("m")
	if got, want := h.Count(), uint64(n*2); got != want { // 2 output dims per request
		t.Errorf("mean drift observations = %d, want %d", got, want)
	}
	// The recorded drift is |v2 mean − v1 mean| for this input.
	g1, _ := v1.Estimator().Predict(x)
	g2, _ := v2.Estimator().Predict(x)
	wantSum := 0.0
	for i := range g1.Mean {
		wantSum += math.Abs(g2.Mean[i] - g1.Mean[i])
	}
	if got, want := h.Sum(), wantSum*n; math.Abs(got-want) > 1e-9*math.Max(1, want) {
		t.Errorf("mean drift sum = %v, want %v", got, want)
	}
}

// TestSwapInFlightFinishesOnOldVersion: a request admitted before the swap
// is answered by the version that admitted it, and the old version's pool
// closes only after that response is delivered.
func TestSwapInFlightFinishesOnOldVersion(t *testing.T) {
	r := New(Config{})
	defer closeRegistry(t, r)
	v1, err := r.AddVersion("m", "v1", testNet(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.AddVersion("m", "v2", testNet(t, 2)); err != nil {
		t.Fatal(err)
	}
	if err := r.SetRoutes("m", "v1", "", 0, ""); err != nil {
		t.Fatal(err)
	}

	// Admit a request to v1 by hand (acquire + Do in a goroutine), then swap
	// to v2 while it is in flight.
	if !v1.tryAcquire() {
		t.Fatal("v1 not acquirable")
	}
	x := tensor.Vector{1, 2, 3}
	done := make(chan error, 1)
	go func() {
		_, err := v1.coal.Do(context.Background(), x)
		v1.release()
		done <- err
	}()

	if err := r.SetRoutes("m", "v2", "", 0, ""); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Errorf("in-flight request failed across swap: %v", err)
	}
	// New requests route to v2.
	_, served, err := r.Predict(context.Background(), "m", "k", x)
	if err != nil {
		t.Fatal(err)
	}
	if served.Version != "v2" {
		t.Errorf("post-swap request served by %s, want v2", served.Version)
	}
}

// TestReplaceUnderSameID: re-adding an ID with identical content is a no-op;
// different content registers a new object that serves only after the next
// SetRoutes, with the displaced object serving (not erroring) in between.
func TestReplaceUnderSameID(t *testing.T) {
	r := New(Config{})
	defer closeRegistry(t, r)
	net1 := testNet(t, 1)
	v1, err := r.AddVersion("m", "live", net1)
	if err != nil {
		t.Fatal(err)
	}
	again, err := r.AddVersion("m", "live", net1.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if again != v1 {
		t.Error("re-adding identical content must return the existing version")
	}
	if err := r.SetRoutes("m", "live", "", 0, ""); err != nil {
		t.Fatal(err)
	}

	// Replace content under the same ID: until routes swap, the displaced
	// object keeps serving.
	v1b, err := r.AddVersion("m", "live", testNet(t, 7))
	if err != nil {
		t.Fatal(err)
	}
	if v1b == v1 || v1b.Fingerprint == v1.Fingerprint {
		t.Fatal("replacement did not produce a new version object")
	}
	x := tensor.Vector{0.4, 0.4, 0.4}
	_, served, err := r.Predict(context.Background(), "m", "k", x)
	if err != nil {
		t.Fatal(err)
	}
	if served.Fingerprint != v1.Fingerprint {
		t.Errorf("pre-swap request served by %s, want displaced %s", served.Fingerprint, v1.Fingerprint)
	}

	if err := r.SetRoutes("m", "live", "", 0, ""); err != nil {
		t.Fatal(err)
	}
	_, served, err = r.Predict(context.Background(), "m", "k", x)
	if err != nil {
		t.Fatal(err)
	}
	if served.Fingerprint != v1b.Fingerprint {
		t.Errorf("post-swap request served by %s, want replacement %s", served.Fingerprint, v1b.Fingerprint)
	}
	// The displaced object drains: its pool closes once idle.
	select {
	case <-v1.idle:
	case <-time.After(10 * time.Second):
		t.Error("displaced version never became idle")
	}
}

func TestRemoveVersionGuards(t *testing.T) {
	r := New(Config{})
	defer closeRegistry(t, r)
	if _, err := r.AddVersion("m", "v1", testNet(t, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := r.AddVersion("m", "v2", testNet(t, 2)); err != nil {
		t.Fatal(err)
	}
	if err := r.SetRoutes("m", "v1", "", 0, "v2"); err != nil {
		t.Fatal(err)
	}
	if err := r.RemoveVersion("m", "v1"); !errors.Is(err, ErrRegistry) {
		t.Errorf("removing routed current: err = %v, want ErrRegistry", err)
	}
	if err := r.RemoveVersion("m", "v2"); !errors.Is(err, ErrRegistry) {
		t.Errorf("removing routed shadow: err = %v, want ErrRegistry", err)
	}
	if err := r.SetRoutes("m", "v1", "", 0, ""); err != nil {
		t.Fatal(err)
	}
	if err := r.RemoveVersion("m", "v2"); err != nil {
		t.Errorf("removing unrouted version: %v", err)
	}
	if err := r.RemoveVersion("m", "v2"); !errors.Is(err, ErrNotFound) {
		t.Errorf("double remove: err = %v, want ErrNotFound", err)
	}
}

func TestReadyAndStatus(t *testing.T) {
	r := New(Config{})
	if r.Ready() {
		t.Error("empty registry reports ready")
	}
	if _, err := r.AddVersion("m", "v1", testNet(t, 1)); err != nil {
		t.Fatal(err)
	}
	if r.Ready() {
		t.Error("unrouted model reports ready")
	}
	if err := r.SetRoutes("m", "v1", "", 0, ""); err != nil {
		t.Fatal(err)
	}
	if !r.Ready() {
		t.Error("routed model reports not ready")
	}

	if _, err := r.AddVersion("m", "v2", testNet(t, 2)); err != nil {
		t.Fatal(err)
	}
	if err := r.SetRoutes("m", "v1", "v2", 0.25, "v2"); err != nil {
		t.Fatal(err)
	}
	sts := r.Models()
	if len(sts) != 1 {
		t.Fatalf("Models() returned %d entries, want 1", len(sts))
	}
	st := sts[0]
	if st.Name != "m" || st.Current != "v1" || st.Canary != "v2" ||
		st.CanaryWeight != 0.25 || st.Shadow != "v2" || len(st.Versions) != 2 {
		t.Errorf("status = %+v", st)
	}
	if st.CurrentFingerprint == "" || st.Versions[0].Fingerprint == "" {
		t.Error("status missing fingerprints")
	}
	if st.Summary == "" || st.Params == 0 {
		t.Errorf("status missing model description: %+v", st)
	}

	closeRegistry(t, r)
	if r.Ready() {
		t.Error("closed registry reports ready")
	}
}

// TestWarmupRejectsBrokenModel: a version whose propagation fails never
// becomes registered (the manifest-load guard).
func TestWarmupRejectsBrokenModel(t *testing.T) {
	// KeepProb of exactly 1 with zero-width... easiest deliberate failure:
	// build a valid net, then corrupt a weight to NaN after construction.
	// nn.Load would reject this; programmatic AddVersion relies on warmup.
	net := testNet(t, 1)
	net.Layers()[0].W.Data[0] = math.NaN()
	r := New(Config{})
	defer closeRegistry(t, r)
	if _, err := r.AddVersion("m", "bad", net); err == nil {
		t.Error("AddVersion accepted a NaN-weight model")
	}
	if _, err := r.Version("m", "bad"); !errors.Is(err, ErrNotFound) {
		t.Errorf("failed version lookup: err = %v, want ErrNotFound", err)
	}
}

func TestHashFractionRange(t *testing.T) {
	keys := []string{"", "a", "request-1", "request-2", "zzzzzzzz"}
	for _, k := range keys {
		f := hashFraction(k)
		if !(f >= 0 && f < 1) {
			t.Errorf("hashFraction(%q) = %v outside [0,1)", k, f)
		}
		if f != hashFraction(k) {
			t.Errorf("hashFraction(%q) not deterministic", k)
		}
	}
}

// TestServeConvEstimator registers the conv sequence estimator through
// AddVersionEstimator and serves it: the sequence paths are first-class
// registry citizens, and served responses stay bit-identical to direct
// estimator calls.
func TestServeConvEstimator(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	c1, err := conv.NewConv1D(3, 2, 6, 2, nn.ActReLU, 0.9, rng)
	if err != nil {
		t.Fatal(err)
	}
	head, err := nn.New(nn.Config{
		InputDim: 6, Hidden: []int{8}, OutputDim: 2,
		Activation: nn.ActReLU, OutputActivation: nn.ActIdentity,
		KeepProb: 0.9, Seed: 73,
	})
	if err != nil {
		t.Fatal(err)
	}
	cnet, err := conv.NewNet([]*conv.Conv1D{c1}, head)
	if err != nil {
		t.Fatal(err)
	}
	const steps = 11
	est, err := conv.NewEstimator(cnet, steps, 0.01)
	if err != nil {
		t.Fatal(err)
	}

	// The registry's all-ones warmup probes net.InputDim() inputs — the
	// dense head's shape, not the sequence estimator's flattened steps ×
	// channels contract — so sequence estimators register with warmup off.
	r := New(Config{SkipWarmup: true})
	defer closeRegistry(t, r)
	if _, err := r.AddVersionEstimator("conv", "v1", head, est); err != nil {
		t.Fatal(err)
	}
	if err := r.SetRoutes("conv", "v1", "", 0, ""); err != nil {
		t.Fatal(err)
	}

	x := make(tensor.Vector, steps*2)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	got, served, err := r.Predict(context.Background(), "conv", "req", x)
	if err != nil {
		t.Fatal(err)
	}
	if served.Version != "v1" {
		t.Fatalf("served %q, want v1", served.Version)
	}
	want, err := est.Predict(x)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Mean {
		if math.Float64bits(got.Mean[i]) != math.Float64bits(want.Mean[i]) ||
			math.Float64bits(got.Var[i]) != math.Float64bits(want.Var[i]) {
			t.Errorf("dim %d: served (%v, %v) != direct (%v, %v)",
				i, got.Mean[i], got.Var[i], want.Mean[i], want.Var[i])
		}
	}
}

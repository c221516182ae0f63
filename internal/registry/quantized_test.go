package registry

import (
	"context"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/apdeepsense/apdeepsense/internal/core"
	"github.com/apdeepsense/apdeepsense/internal/nn"
	"github.com/apdeepsense/apdeepsense/internal/obs"
	"github.com/apdeepsense/apdeepsense/internal/qprop"
	"github.com/apdeepsense/apdeepsense/internal/serve"
	"github.com/apdeepsense/apdeepsense/internal/tensor"
)

// TestQuantizedOptIn pins the opt-in contract: by default versions serve on
// the float path, Config.EnableQuantized flips every version to the
// fixed-point path (and skips the now-redundant compile), and the per-model
// SetQuantized overrides the registry default.
func TestQuantizedOptIn(t *testing.T) {
	t.Run("default-off", func(t *testing.T) {
		r := New(Config{})
		defer closeRegistry(t, r)
		v, err := r.AddVersion("m", "v1", testNet(t, 1))
		if err != nil {
			t.Fatal(err)
		}
		if v.Quantized() {
			t.Fatal("version quantized without opt-in")
		}
	})
	t.Run("registry-wide", func(t *testing.T) {
		met := NewMetrics(obs.NewRegistry())
		r := New(Config{EnableQuantized: true, Metrics: met})
		defer closeRegistry(t, r)
		v, err := r.AddVersion("m", "v1", testNet(t, 1))
		if err != nil {
			t.Fatal(err)
		}
		if !v.Quantized() {
			t.Fatal("EnableQuantized did not install a quantized program")
		}
		if got := met.QuantizedBuilds("ok"); got != 1 {
			t.Fatalf("quantized ok count = %v, want 1", got)
		}
		st, err := r.Model("m")
		if err != nil {
			t.Fatal(err)
		}
		if len(st.Versions) != 1 || !st.Versions[0].Quantized {
			t.Fatalf("status does not report quantized: %+v", st.Versions)
		}
	})
	t.Run("per-model", func(t *testing.T) {
		r := New(Config{})
		defer closeRegistry(t, r)
		if err := r.SetQuantized("m", true); err != nil {
			t.Fatal(err)
		}
		v, err := r.AddVersion("m", "v1", testNet(t, 1))
		if err != nil {
			t.Fatal(err)
		}
		if !v.Quantized() {
			t.Fatal("SetQuantized did not install a quantized program")
		}
		w, err := r.AddVersion("other", "v1", testNet(t, 2))
		if err != nil {
			t.Fatal(err)
		}
		if w.Quantized() {
			t.Fatal("per-model opt-in leaked to another model")
		}
	})
}

// TestQuantizedServesBitIdentical pins the serving contract: a quantized
// version's routed responses are Float64bits-identical to both its direct
// estimator Predict and to qprop.Build run standalone on the same network —
// dispatch really is on the fixed-point path, and coalescing does not change
// a single bit (per-row dynamic quantization).
func TestQuantizedServesBitIdentical(t *testing.T) {
	r := New(Config{EnableQuantized: true})
	defer closeRegistry(t, r)
	net := testNet(t, 3)
	v, err := r.AddVersion("m", "v1", net)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.SetRoutes("m", "v1", "", 0, ""); err != nil {
		t.Fatal(err)
	}
	qp, _, err := qprop.Build(net, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 32; i++ {
		x := tensor.Vector{float64(i) * 0.3, -1 + float64(i)*0.2, float64(i%5) - 2}
		g, served, err := r.Predict(ctx, "m", fmt.Sprintf("k%d", i), x)
		if err != nil {
			t.Fatal(err)
		}
		if served.Version != "v1" {
			t.Fatalf("served by %q", served.Version)
		}
		direct, err := v.Estimator().Predict(x)
		if err != nil {
			t.Fatal(err)
		}
		standalone := qp.Run(core.Deterministic(x))
		for j := range g.Mean {
			if math.Float64bits(g.Mean[j]) != math.Float64bits(direct.Mean[j]) ||
				math.Float64bits(g.Var[j]) != math.Float64bits(direct.Var[j]) {
				t.Fatalf("req %d dim %d: served response differs from direct Predict", i, j)
			}
			if math.Float64bits(direct.Mean[j]) != math.Float64bits(standalone.Mean[j]) {
				t.Fatalf("req %d dim %d: served mean differs from standalone qprop (dispatch not on fixed-point path?)", i, j)
			}
		}
	}
}

// TestQuantizedCacheSharing pins the fingerprint-keyed cache: two versions of
// the same network share one quantized program (one build, one cache hit),
// and retiring both drops the entry.
func TestQuantizedCacheSharing(t *testing.T) {
	met := NewMetrics(obs.NewRegistry())
	r := New(Config{EnableQuantized: true, Metrics: met})
	defer closeRegistry(t, r)
	net := testNet(t, 7)
	if _, err := r.AddVersion("m", "v1", net); err != nil {
		t.Fatal(err)
	}
	if _, err := r.AddVersion("m", "v2", net); err != nil {
		t.Fatal(err)
	}
	if ok, hit := met.QuantizedBuilds("ok"), met.QuantizedBuilds("cache_hit"); ok != 1 || hit != 1 {
		t.Fatalf("quantized builds ok=%v cache_hit=%v, want 1 and 1", ok, hit)
	}
	if n := r.quants.size(); n != 1 {
		t.Fatalf("cache size = %d, want 1 shared entry", n)
	}
	if err := r.RemoveVersion("m", "v1"); err != nil {
		t.Fatal(err)
	}
	if err := r.RemoveVersion("m", "v2"); err != nil {
		t.Fatal(err)
	}
	if n := r.quants.size(); n != 0 {
		t.Fatalf("cache size after retire = %d, want 0", n)
	}
}

// TestQuantizedFallback pins the degrade-don't-fail contract: when the
// quantized build rejects the model, the version still loads, serves on the
// float engine, and the fallback is counted.
func TestQuantizedFallback(t *testing.T) {
	orig := buildQuantized
	buildQuantized = func(net *nn.Network, opts core.Options) (*qprop.Propagator, error) {
		return nil, errors.New("injected: weights overflow the fixed-point scheme")
	}
	defer func() { buildQuantized = orig }()

	met := NewMetrics(obs.NewRegistry())
	r := New(Config{EnableQuantized: true, Metrics: met})
	defer closeRegistry(t, r)
	v, err := r.AddVersion("m", "v1", testNet(t, 1))
	if err != nil {
		t.Fatalf("quantize failure must not fail the load: %v", err)
	}
	if v.Quantized() {
		t.Fatal("version claims quantized after a failed build")
	}
	if got := met.QuantizedBuilds("fallback"); got != 1 {
		t.Fatalf("fallback count = %v, want 1", got)
	}
	if err := r.SetRoutes("m", "v1", "", 0, ""); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Predict(context.Background(), "m", "k", tensor.Vector{1, 2, 3}); err != nil {
		t.Fatalf("float fallback does not serve: %v", err)
	}
}

// TestQuantizedManifest pins the manifest plumbing: a model declaring
// "quantized": true loads onto the fixed-point path without any registry
// config, and one that does not stays on the float path.
func TestQuantizedManifest(t *testing.T) {
	dir := t.TempDir()
	writeModel(t, dir, "q-v1.model", 1)
	writeModel(t, dir, "f-v1.model", 2)
	writeManifest(t, filepath.Join(dir, "manifest.json"), Manifest{Models: []ManifestModel{
		{
			Name: "quantized", Quantized: true,
			Versions: []ManifestVersion{{ID: "v1", Path: "q-v1.model"}},
			Current:  "v1",
		},
		{
			Name:     "float",
			Versions: []ManifestVersion{{ID: "v1", Path: "f-v1.model"}},
			Current:  "v1",
		},
	}})
	r := New(Config{})
	defer closeRegistry(t, r)
	l := NewLoader(r, filepath.Join(dir, "manifest.json"))
	if _, err := l.Reload(true); err != nil {
		t.Fatal(err)
	}
	qv, err := r.Version("quantized", "v1")
	if err != nil {
		t.Fatal(err)
	}
	if !qv.Quantized() {
		t.Fatal("manifest quantized flag did not install a quantized program")
	}
	fv, err := r.Version("float", "v1")
	if err != nil {
		t.Fatal(err)
	}
	if fv.Quantized() {
		t.Fatal("unflagged manifest model landed on the quantized path")
	}
}

// TestQuantizedHotSwapHammer is the hot-swap contract under quantized
// serving: workers predict continuously while versions swap (including
// replace-under-the-same-ID reloads); zero requests drop and every response
// is bit-identical to a direct Predict on the version that served it — the
// same guarantee the float hammer proves, now with the fixed-point dispatch
// and the quantized-program cache churning underneath.
func TestQuantizedHotSwapHammer(t *testing.T) {
	r := New(Config{
		EnableQuantized: true,
		Serve:           serve.Config{MaxBatch: 32, QueueDepth: 4096},
	})
	defer closeRegistry(t, r)

	var estByFP sync.Map
	addVersion := func(id string, seed int64) *Version {
		v, err := r.AddVersion("m", id, testNet(t, seed))
		if err != nil {
			t.Fatal(err)
		}
		if !v.Quantized() {
			t.Fatalf("version %s seed %d not quantized", id, seed)
		}
		estByFP.Store(v.Fingerprint, v)
		return v
	}
	addVersion("v1", 1)
	addVersion("v2", 2)
	if err := r.SetRoutes("m", "v1", "", 0, ""); err != nil {
		t.Fatal(err)
	}

	const (
		workers = 4
		swaps   = 60
	)
	inputs := make([]tensor.Vector, 16)
	for i := range inputs {
		inputs[i] = tensor.Vector{float64(i) * 0.25, -1 + float64(i)*0.1, float64(i%3) - 1}
	}

	var (
		done     = make(chan struct{})
		requests atomic.Int64
		failures = make(chan string, workers)
	)
	fail := func(format string, args ...any) {
		select {
		case failures <- fmt.Sprintf(format, args...):
		default:
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx := context.Background()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				x := inputs[(w+i)%len(inputs)]
				g, served, err := r.Predict(ctx, "m", fmt.Sprintf("w%d-%d", w, i), x)
				if err != nil {
					fail("worker %d req %d: %v", w, i, err)
					return
				}
				requests.Add(1)
				vi, ok := estByFP.Load(served.Fingerprint)
				if !ok {
					fail("worker %d req %d: unknown fingerprint %s", w, i, served.Fingerprint)
					return
				}
				direct, err := vi.(*Version).Estimator().Predict(x)
				if err != nil {
					fail("worker %d req %d: direct predict: %v", w, i, err)
					return
				}
				for j := range g.Mean {
					if math.Float64bits(g.Mean[j]) != math.Float64bits(direct.Mean[j]) ||
						math.Float64bits(g.Var[j]) != math.Float64bits(direct.Var[j]) {
						fail("worker %d req %d dim %d: served response not bit-identical", w, i, j)
						return
					}
				}
			}
		}(w)
	}

	cur := "v1"
	for s := 0; s < swaps; s++ {
		next := "v2"
		if cur == "v2" {
			next = "v1"
		}
		if s%10 == 5 {
			// Reload under the same ID with different weights: the displaced
			// version keeps serving until the route swap lands.
			addVersion(next, int64(100+s))
		}
		if err := r.SetRoutes("m", next, "", 0, ""); err != nil {
			t.Fatal(err)
		}
		cur = next
		time.Sleep(time.Millisecond)
	}
	close(done)
	wg.Wait()
	select {
	case msg := <-failures:
		t.Fatal(msg)
	default:
	}
	if n := requests.Load(); n < int64(workers*swaps) {
		t.Errorf("only %d successful requests across %d swaps — hammer barely ran", n, swaps)
	}
}

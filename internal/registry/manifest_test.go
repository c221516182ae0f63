package registry

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/apdeepsense/apdeepsense/internal/core"
	"github.com/apdeepsense/apdeepsense/internal/tensor"
)

func writeModel(t *testing.T, dir, name string, seed int64) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := testNet(t, seed).SaveFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func writeManifest(t *testing.T, path string, man Manifest) {
	t.Helper()
	data, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestManifestValidate(t *testing.T) {
	ok := Manifest{Models: []ManifestModel{{
		Name:     "m",
		Versions: []ManifestVersion{{ID: "v1", Path: "a.model"}, {ID: "v2", Path: "b.model"}},
		Current:  "v1",
		Canary:   &ManifestCanary{ID: "v2", Weight: 0.2},
		Shadow:   "v2",
	}}}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid manifest rejected: %v", err)
	}

	cases := []struct {
		name   string
		mutate func(*Manifest)
	}{
		{"empty model name", func(m *Manifest) { m.Models[0].Name = "" }},
		{"duplicate model", func(m *Manifest) { m.Models = append(m.Models, m.Models[0]) }},
		{"negative obs_var", func(m *Manifest) { m.Models[0].ObsVar = -1 }},
		{"no versions", func(m *Manifest) { m.Models[0].Versions = nil }},
		{"empty version id", func(m *Manifest) { m.Models[0].Versions[0].ID = "" }},
		{"empty version path", func(m *Manifest) { m.Models[0].Versions[1].Path = "" }},
		{"duplicate version", func(m *Manifest) { m.Models[0].Versions[1].ID = "v1" }},
		{"current undeclared", func(m *Manifest) { m.Models[0].Current = "nope" }},
		{"canary undeclared", func(m *Manifest) { m.Models[0].Canary.ID = "nope" }},
		{"canary weight zero", func(m *Manifest) { m.Models[0].Canary.Weight = 0 }},
		{"canary weight >1", func(m *Manifest) { m.Models[0].Canary.Weight = 1.5 }},
		{"shadow undeclared", func(m *Manifest) { m.Models[0].Shadow = "nope" }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			man := Manifest{Models: []ManifestModel{{
				Name:     "m",
				Versions: []ManifestVersion{{ID: "v1", Path: "a.model"}, {ID: "v2", Path: "b.model"}},
				Current:  "v1",
				Canary:   &ManifestCanary{ID: "v2", Weight: 0.2},
				Shadow:   "v2",
			}}}
			tc.mutate(&man)
			if err := man.Validate(); !errors.Is(err, ErrManifest) {
				t.Fatalf("want ErrManifest, got %v", err)
			}
		})
	}
}

func TestManifestSessionsValidate(t *testing.T) {
	base := func() Manifest {
		return Manifest{
			Models: []ManifestModel{{
				Name:     "m",
				Versions: []ManifestVersion{{ID: "v1", Path: "a.model"}},
				Current:  "v1",
			}},
			Sessions: &ManifestSessions{
				Model: "m", Channels: 3, Length: 8, Stride: 4,
				Standardize: true, WarmupWindows: 4, DriftThreshold: 0.9,
				EscalateAfter: 2, ReadmitAfter: 2,
				IdleTimeout:  "10m",
				SnapshotPath: "fleet.apsf", SnapshotInterval: "30s",
			},
		}
	}
	man := base()
	if err := man.Validate(); err != nil {
		t.Fatalf("valid sessions block rejected: %v", err)
	}
	if d, err := man.Sessions.ParsedIdleTimeout(); err != nil || d != 10*time.Minute {
		t.Fatalf("ParsedIdleTimeout = %v, %v", d, err)
	}
	if d, err := man.Sessions.ParsedSnapshotInterval(); err != nil || d != 30*time.Second {
		t.Fatalf("ParsedSnapshotInterval = %v, %v", d, err)
	}

	cases := []struct {
		name   string
		mutate func(*Manifest)
	}{
		{"empty model", func(m *Manifest) { m.Sessions.Model = "" }},
		{"undeclared model", func(m *Manifest) { m.Sessions.Model = "nope" }},
		{"zero channels", func(m *Manifest) { m.Sessions.Channels = 0 }},
		{"zero length", func(m *Manifest) { m.Sessions.Length = 0 }},
		{"negative stride", func(m *Manifest) { m.Sessions.Stride = -1 }},
		{"negative warmup", func(m *Manifest) { m.Sessions.WarmupWindows = -1 }},
		{"threshold >1", func(m *Manifest) { m.Sessions.DriftThreshold = 1.5 }},
		{"threshold negative", func(m *Manifest) { m.Sessions.DriftThreshold = -0.1 }},
		{"negative escalate", func(m *Manifest) { m.Sessions.EscalateAfter = -1 }},
		{"negative readmit", func(m *Manifest) { m.Sessions.ReadmitAfter = -2 }},
		{"unparseable idle timeout", func(m *Manifest) { m.Sessions.IdleTimeout = "soon" }},
		{"negative idle timeout", func(m *Manifest) { m.Sessions.IdleTimeout = "-1s" }},
		{"unparseable snapshot interval", func(m *Manifest) { m.Sessions.SnapshotInterval = "often" }},
		{"interval without path", func(m *Manifest) { m.Sessions.SnapshotPath = "" }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			man := base()
			tc.mutate(&man)
			if err := man.Validate(); !errors.Is(err, ErrManifest) {
				t.Fatalf("want ErrManifest, got %v", err)
			}
		})
	}

	// Defaults-only block: zero thresholds/hysteresis mean "use the session
	// package defaults", and no snapshot config is fine.
	minimal := base()
	minimal.Sessions = &ManifestSessions{Model: "m", Channels: 1, Length: 2, Stride: 1}
	if err := minimal.Validate(); err != nil {
		t.Fatalf("minimal sessions block rejected: %v", err)
	}
	if d, err := minimal.Sessions.ParsedIdleTimeout(); err != nil || d != 0 {
		t.Fatalf("unset idle timeout = %v, %v", d, err)
	}
}

func TestLoadManifestErrors(t *testing.T) {
	if _, err := LoadManifest(filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Fatal("want error for missing manifest")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadManifest(bad); !errors.Is(err, ErrManifest) {
		t.Fatalf("want ErrManifest for bad JSON, got %v", err)
	}
}

func TestLoaderReloadLifecycle(t *testing.T) {
	dir := t.TempDir()
	writeModel(t, dir, "a.model", 1)
	writeModel(t, dir, "b.model", 2)
	manPath := filepath.Join(dir, "registry.json")
	writeManifest(t, manPath, Manifest{Models: []ManifestModel{{
		Name:     "demo",
		Versions: []ManifestVersion{{ID: "v1", Path: "a.model"}, {ID: "v2", Path: "b.model"}},
		Current:  "v1",
	}}})

	r := New(Config{})
	defer closeRegistry(t, r)
	l := NewLoader(r, manPath)
	if l.Registry() != r {
		t.Fatal("Registry() accessor broken")
	}

	changed, err := l.Reload(true)
	if err != nil || !changed {
		t.Fatalf("initial reload: changed=%v err=%v", changed, err)
	}
	x := tensor.Vector{1, 2, 3}
	_, served, err := r.Predict(context.Background(), "demo", "k", x)
	if err != nil {
		t.Fatal(err)
	}
	if served.Version != "v1" {
		t.Fatalf("serving %q, want v1", served.Version)
	}

	// No disk change → no reload.
	if changed, err := l.Reload(false); err != nil || changed {
		t.Fatalf("unchanged poll: changed=%v err=%v", changed, err)
	}

	// Flip routing in the manifest: the poll must pick it up via the stamp.
	time.Sleep(5 * time.Millisecond) // ensure a distinct mtime even on coarse clocks
	writeManifest(t, manPath, Manifest{Models: []ManifestModel{{
		Name:     "demo",
		Versions: []ManifestVersion{{ID: "v1", Path: "a.model"}, {ID: "v2", Path: "b.model"}},
		Current:  "v2",
		Shadow:   "v1",
	}}})
	if changed, err := l.Reload(false); err != nil || !changed {
		t.Fatalf("route-change poll: changed=%v err=%v", changed, err)
	}
	_, served, err = r.Predict(context.Background(), "demo", "k", x)
	if err != nil {
		t.Fatal(err)
	}
	if served.Version != "v2" {
		t.Fatalf("serving %q after reload, want v2", served.Version)
	}

	// Rewrite a model file with new weights under the same path: the stamp
	// changes, Apply replaces the version in place, requests pick up the new
	// fingerprint.
	oldFP := served.Fingerprint
	time.Sleep(5 * time.Millisecond)
	writeModel(t, dir, "b.model", 99)
	if changed, err := l.Reload(false); err != nil || !changed {
		t.Fatalf("model-file poll: changed=%v err=%v", changed, err)
	}
	_, served, err = r.Predict(context.Background(), "demo", "k", x)
	if err != nil {
		t.Fatal(err)
	}
	if served.Version != "v2" || served.Fingerprint == oldFP {
		t.Fatalf("hot-replace not picked up: version=%q fp changed=%v", served.Version, served.Fingerprint != oldFP)
	}

	// A broken manifest on disk must fail the reload and keep serving.
	time.Sleep(5 * time.Millisecond)
	writeManifest(t, manPath, Manifest{Models: []ManifestModel{{
		Name:     "demo",
		Versions: []ManifestVersion{{ID: "v2", Path: "b.model"}},
		Current:  "missing",
	}}})
	if _, err := l.Reload(false); !errors.Is(err, ErrManifest) {
		t.Fatalf("want ErrManifest from broken manifest, got %v", err)
	}
	if _, _, err := r.Predict(context.Background(), "demo", "k", x); err != nil {
		t.Fatalf("previous config must keep serving after failed reload: %v", err)
	}

	// Dropping the model from the manifest removes it from the registry.
	writeModel(t, dir, "c.model", 3)
	time.Sleep(5 * time.Millisecond)
	writeManifest(t, manPath, Manifest{Models: []ManifestModel{{
		Name:     "other",
		Versions: []ManifestVersion{{ID: "v1", Path: "c.model"}},
		Current:  "v1",
	}}})
	if changed, err := l.Reload(false); err != nil || !changed {
		t.Fatalf("model-drop poll: changed=%v err=%v", changed, err)
	}
	if _, _, err := r.Predict(context.Background(), "demo", "k", x); !errors.Is(err, ErrNotFound) {
		t.Fatalf("dropped model must be gone, got %v", err)
	}
	if _, _, err := r.Predict(context.Background(), "other", "k", x); err != nil {
		t.Fatalf("new model must serve: %v", err)
	}
}

func TestLoaderWatch(t *testing.T) {
	dir := t.TempDir()
	writeModel(t, dir, "a.model", 1)
	writeModel(t, dir, "b.model", 2)
	manPath := filepath.Join(dir, "registry.json")
	writeManifest(t, manPath, Manifest{Models: []ManifestModel{{
		Name:     "demo",
		Versions: []ManifestVersion{{ID: "v1", Path: "a.model"}},
		Current:  "v1",
	}}})

	r := New(Config{})
	defer closeRegistry(t, r)
	l := NewLoader(r, manPath)
	if _, err := l.Reload(true); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	watchDone := make(chan struct{})
	go func() {
		defer close(watchDone)
		l.Watch(ctx, 2*time.Millisecond, t.Logf)
	}()

	time.Sleep(5 * time.Millisecond)
	writeManifest(t, manPath, Manifest{Models: []ManifestModel{{
		Name:     "demo",
		Versions: []ManifestVersion{{ID: "v1", Path: "a.model"}, {ID: "v2", Path: "b.model"}},
		Current:  "v2",
	}}})

	deadline := time.Now().Add(5 * time.Second)
	for {
		_, served, err := r.Predict(context.Background(), "demo", "k", tensor.Vector{1, 2, 3})
		if err == nil && served.Version == "v2" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("watch loop never applied the new manifest (err=%v, served=%+v)", err, served)
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	select {
	case <-watchDone:
	case <-time.After(time.Second):
		t.Fatal("Watch did not exit on context cancellation")
	}
}

func TestApplyRejectsUnreadableModelFile(t *testing.T) {
	dir := t.TempDir()
	man := &Manifest{Models: []ManifestModel{{
		Name:     "demo",
		Versions: []ManifestVersion{{ID: "v1", Path: "absent.model"}},
		Current:  "v1",
	}}}
	r := New(Config{})
	defer closeRegistry(t, r)
	if err := r.Apply(man, dir); err == nil {
		t.Fatal("want error applying manifest with missing model file")
	}
}

// TestManifestLegacyActivationMoments: manifests written by older versions
// may still carry keys that no longer select anything — "activation_moments"
// (from when the activation-moment backend was selectable) and "quantized"
// (from when a model could opt into the int8 runtime). Each is ignored like
// any unknown key: the model loads and serves the float engine's answers,
// bit-identical to the same network served from a manifest without the key
// and to a directly built estimator.
func TestManifestLegacyActivationMoments(t *testing.T) {
	dir := t.TempDir()
	writeModel(t, dir, "a.model", 1)
	x := tensor.Vector{0.5, -1, 2}
	serve := func(extra string) core.GaussianVec {
		t.Helper()
		manPath := filepath.Join(dir, "registry.json")
		man := `{"models": [{"name": "demo", ` + extra +
			`"versions": [{"id": "v1", "path": "a.model"}], "current": "v1"}]}`
		if err := os.WriteFile(manPath, []byte(man), 0o644); err != nil {
			t.Fatal(err)
		}
		r := New(Config{})
		defer closeRegistry(t, r)
		if _, err := NewLoader(r, manPath).Reload(true); err != nil {
			t.Fatalf("manifest with %q: %v", extra, err)
		}
		g, _, err := r.Predict(context.Background(), "demo", "k", x)
		if err != nil {
			t.Fatalf("manifest with %q: %v", extra, err)
		}
		return g
	}
	direct, err := core.NewApDeepSense(testNet(t, 1), core.Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := direct.Predict(x)
	if err != nil {
		t.Fatal(err)
	}
	same := func(a, b core.GaussianVec) bool {
		for i := range a.Mean {
			if math.Float64bits(a.Mean[i]) != math.Float64bits(b.Mean[i]) ||
				math.Float64bits(a.Var[i]) != math.Float64bits(b.Var[i]) {
				return false
			}
		}
		return true
	}
	plain := serve("")
	if !same(plain, want) {
		t.Errorf("served %+v, direct %+v", plain, want)
	}
	for _, extra := range []string{`"activation_moments": "pwl", `, `"quantized": true, `} {
		if got := serve(extra); !same(got, plain) {
			t.Errorf("manifest with %s served %+v, without it %+v", extra, got, plain)
		}
	}
}

package registry

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/apdeepsense/apdeepsense/internal/nn"
)

// ErrManifest is returned (wrapped) for unreadable or invalid manifests.
var ErrManifest = errors.New("registry: invalid manifest")

// Manifest is the on-disk description of what a registry should serve:
// models, their version files, and the traffic policy per model. Model file
// paths are resolved relative to the manifest's directory.
//
//	{
//	  "models": [{
//	    "name": "demo",
//	    "obs_var": 0,
//	    "versions": [{"id": "v1", "path": "demo-v1.model"},
//	                 {"id": "v2", "path": "demo-v2.model"}],
//	    "current": "v1",
//	    "canary": {"id": "v2", "weight": 0.1},
//	    "shadow": "v2"
//	  }]
//	}
type Manifest struct {
	Models []ManifestModel `json:"models"`
	// Sessions, when present, configures the resident device-session fleet
	// (internal/session) served alongside the models:
	//
	//	"sessions": {
	//	  "model": "demo",
	//	  "channels": 3, "length": 8, "stride": 4,
	//	  "standardize": true,
	//	  "warmup_windows": 8, "drift_threshold": 0.9,
	//	  "escalate_after": 2, "readmit_after": 2,
	//	  "idle_timeout": "10m",
	//	  "snapshot_path": "fleet.apsf", "snapshot_interval": "30s"
	//	}
	Sessions *ManifestSessions `json:"sessions,omitempty"`
}

// ManifestSessions configures the resident session fleet: which model the
// fleet predicts through (hot-swap safe — the session manager resolves the
// live version per batch), the per-device window shape and gate policy, and
// where the whole-fleet snapshot persists. SnapshotPath is resolved relative
// to the manifest's directory, like model version paths. Durations use
// time.ParseDuration syntax ("30s", "10m").
type ManifestSessions struct {
	Model            string  `json:"model"`
	Channels         int     `json:"channels"`
	Length           int     `json:"length"`
	Stride           int     `json:"stride"`
	Standardize      bool    `json:"standardize,omitempty"`
	WarmupWindows    int     `json:"warmup_windows,omitempty"`
	DriftThreshold   float64 `json:"drift_threshold,omitempty"`
	EscalateAfter    int     `json:"escalate_after,omitempty"`
	ReadmitAfter     int     `json:"readmit_after,omitempty"`
	IdleTimeout      string  `json:"idle_timeout,omitempty"`
	SnapshotPath     string  `json:"snapshot_path,omitempty"`
	SnapshotInterval string  `json:"snapshot_interval,omitempty"`
}

// ParsedIdleTimeout returns the idle-eviction timeout (0 when unset).
func (ms *ManifestSessions) ParsedIdleTimeout() (time.Duration, error) {
	return parseOptionalDuration("idle_timeout", ms.IdleTimeout)
}

// ParsedSnapshotInterval returns the periodic-snapshot interval (0 = only
// snapshot on shutdown).
func (ms *ManifestSessions) ParsedSnapshotInterval() (time.Duration, error) {
	return parseOptionalDuration("snapshot_interval", ms.SnapshotInterval)
}

func parseOptionalDuration(field, s string) (time.Duration, error) {
	if s == "" {
		return 0, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, fmt.Errorf("sessions: %s %q: %v: %w", field, s, err, ErrManifest)
	}
	if d < 0 {
		return 0, fmt.Errorf("sessions: %s %q negative: %w", field, s, ErrManifest)
	}
	return d, nil
}

// ManifestModel is one model entry.
type ManifestModel struct {
	Name     string            `json:"name"`
	ObsVar   float64           `json:"obs_var,omitempty"`
	Versions []ManifestVersion `json:"versions"`
	Current  string            `json:"current"`
	Canary   *ManifestCanary   `json:"canary,omitempty"`
	Shadow   string            `json:"shadow,omitempty"`
}

// ManifestVersion names one serialized model file.
type ManifestVersion struct {
	ID   string `json:"id"`
	Path string `json:"path"`
}

// ManifestCanary is the weighted candidate split.
type ManifestCanary struct {
	ID     string  `json:"id"`
	Weight float64 `json:"weight"`
}

// Validate checks internal consistency: unique names and IDs, routes naming
// declared versions, weights in range.
func (man *Manifest) Validate() error {
	names := make(map[string]bool, len(man.Models))
	for _, m := range man.Models {
		if m.Name == "" {
			return fmt.Errorf("model with empty name: %w", ErrManifest)
		}
		if names[m.Name] {
			return fmt.Errorf("duplicate model %q: %w", m.Name, ErrManifest)
		}
		names[m.Name] = true
		if m.ObsVar < 0 {
			return fmt.Errorf("model %q: obs_var %v < 0: %w", m.Name, m.ObsVar, ErrManifest)
		}
		if len(m.Versions) == 0 {
			return fmt.Errorf("model %q: no versions: %w", m.Name, ErrManifest)
		}
		ids := make(map[string]bool, len(m.Versions))
		for _, v := range m.Versions {
			if v.ID == "" || v.Path == "" {
				return fmt.Errorf("model %q: version with empty id or path: %w", m.Name, ErrManifest)
			}
			if ids[v.ID] {
				return fmt.Errorf("model %q: duplicate version %q: %w", m.Name, v.ID, ErrManifest)
			}
			ids[v.ID] = true
		}
		if !ids[m.Current] {
			return fmt.Errorf("model %q: current %q not among versions: %w", m.Name, m.Current, ErrManifest)
		}
		if m.Canary != nil {
			if !ids[m.Canary.ID] {
				return fmt.Errorf("model %q: canary %q not among versions: %w", m.Name, m.Canary.ID, ErrManifest)
			}
			if !(m.Canary.Weight > 0 && m.Canary.Weight <= 1) {
				return fmt.Errorf("model %q: canary weight %v outside (0, 1]: %w", m.Name, m.Canary.Weight, ErrManifest)
			}
		}
		if m.Shadow != "" && !ids[m.Shadow] {
			return fmt.Errorf("model %q: shadow %q not among versions: %w", m.Name, m.Shadow, ErrManifest)
		}
	}
	if s := man.Sessions; s != nil {
		if s.Model == "" {
			return fmt.Errorf("sessions: empty model: %w", ErrManifest)
		}
		if !names[s.Model] {
			return fmt.Errorf("sessions: model %q not among models: %w", s.Model, ErrManifest)
		}
		if s.Channels < 1 || s.Length < 1 || s.Stride < 1 {
			return fmt.Errorf("sessions: channels=%d length=%d stride=%d (all must be >= 1): %w",
				s.Channels, s.Length, s.Stride, ErrManifest)
		}
		if s.WarmupWindows < 0 {
			return fmt.Errorf("sessions: warmup_windows %d < 0: %w", s.WarmupWindows, ErrManifest)
		}
		if s.DriftThreshold < 0 || s.DriftThreshold > 1 {
			return fmt.Errorf("sessions: drift_threshold %v outside [0, 1]: %w", s.DriftThreshold, ErrManifest)
		}
		if s.EscalateAfter < 0 || s.ReadmitAfter < 0 {
			return fmt.Errorf("sessions: escalate_after %d, readmit_after %d (must be >= 0): %w",
				s.EscalateAfter, s.ReadmitAfter, ErrManifest)
		}
		if _, err := s.ParsedIdleTimeout(); err != nil {
			return err
		}
		if _, err := s.ParsedSnapshotInterval(); err != nil {
			return err
		}
		if s.SnapshotInterval != "" && s.SnapshotPath == "" {
			return fmt.Errorf("sessions: snapshot_interval without snapshot_path: %w", ErrManifest)
		}
	}
	return nil
}

// LoadManifest reads and validates the manifest at path.
func LoadManifest(path string) (*Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("registry: read manifest: %w", err)
	}
	var man Manifest
	if err := json.Unmarshal(data, &man); err != nil {
		return nil, fmt.Errorf("registry: parse manifest %s: %v: %w", path, err, ErrManifest)
	}
	if err := man.Validate(); err != nil {
		return nil, fmt.Errorf("registry: manifest %s: %w", path, err)
	}
	return &man, nil
}

// Apply reconciles the registry to the manifest: every version file is
// loaded through the hardened nn.Load path and fingerprinted (an unchanged
// fingerprint under an existing ID is a no-op, so repeated applies are
// cheap), routes swap atomically per model, versions and models absent from
// the manifest drain and close in the background. The registry is treated as
// fully manifest-owned: do not mix Apply with programmatic AddVersion calls
// under other model names.
//
// Apply is all-or-nothing per model in ordering only, not transactional
// across models: a load failure leaves earlier models updated and the
// failing model unchanged (its old versions keep serving).
func (r *Registry) Apply(man *Manifest, baseDir string) error {
	if err := man.Validate(); err != nil {
		return err
	}
	inManifest := make(map[string]bool, len(man.Models))
	for _, mm := range man.Models {
		inManifest[mm.Name] = true
		if err := r.applyModel(mm, baseDir); err != nil {
			return err
		}
	}
	// Drop models the manifest no longer declares.
	for _, st := range r.Models() {
		if !inManifest[st.Name] {
			if err := r.RemoveModel(st.Name); err != nil && !errors.Is(err, ErrNotFound) {
				return err
			}
		}
	}
	return nil
}

func (r *Registry) applyModel(mm ManifestModel, baseDir string) error {
	if err := r.SetObsVar(mm.Name, mm.ObsVar); err != nil {
		return err
	}
	declared := make(map[string]bool, len(mm.Versions))
	for _, mv := range mm.Versions {
		declared[mv.ID] = true
		path := mv.Path
		if !filepath.IsAbs(path) {
			path = filepath.Join(baseDir, path)
		}
		net, err := nn.LoadFile(path)
		if err != nil {
			return fmt.Errorf("registry: model %q version %q: %w", mm.Name, mv.ID, err)
		}
		if _, err := r.AddVersion(mm.Name, mv.ID, net); err != nil {
			return err
		}
	}
	canaryID, canaryWeight := "", 0.0
	if mm.Canary != nil {
		canaryID, canaryWeight = mm.Canary.ID, mm.Canary.Weight
	}
	if err := r.SetRoutes(mm.Name, mm.Current, canaryID, canaryWeight, mm.Shadow); err != nil {
		return err
	}
	// Remove versions the manifest dropped; the fresh route table cannot
	// name them, so removal never races a routed version.
	st, err := r.Model(mm.Name)
	if err != nil {
		return err
	}
	for _, vs := range st.Versions {
		if !declared[vs.ID] {
			if err := r.RemoveVersion(mm.Name, vs.ID); err != nil && !errors.Is(err, ErrNotFound) {
				return err
			}
		}
	}
	return nil
}

// fileStamp is the change-detection key for one watched file: size + mtime.
// A stamp change triggers a reload; content fingerprints then decide whether
// anything actually swaps, so touch-without-change is a no-op.
type fileStamp struct {
	size    int64
	modTime time.Time
}

func stampOf(fi fs.FileInfo) fileStamp { return fileStamp{size: fi.Size(), modTime: fi.ModTime()} }

// Loader ties a registry to a manifest file on disk: explicit reloads (the
// admin endpoint) and a poll-based watch loop (mtime/size of the manifest
// and every referenced model file).
type Loader struct {
	reg  *Registry
	path string
	dir  string

	// mu serializes reloads: the watch loop and admin endpoint must not
	// interleave two Apply passes.
	mu     sync.Mutex
	stamps map[string]fileStamp
}

// NewLoader builds a loader for the manifest at path. Call Reload(true) once
// to perform the initial load.
func NewLoader(reg *Registry, path string) *Loader {
	return &Loader{
		reg:    reg,
		path:   path,
		dir:    filepath.Dir(path),
		stamps: make(map[string]fileStamp),
	}
}

// Registry returns the loader's registry.
func (l *Loader) Registry() *Registry { return l.reg }

// Reload applies the manifest if anything changed on disk (or always, when
// force is set). It returns whether an Apply ran. Change detection stats the
// manifest and every model file it references; content fingerprints inside
// Apply make spurious triggers harmless.
func (l *Loader) Reload(force bool) (bool, error) {
	l.mu.Lock()
	defer l.mu.Unlock()

	stamps, err := l.stat()
	if err != nil {
		l.reg.cfg.Metrics.reloaded("error")
		return false, err
	}
	if !force && l.sameStamps(stamps) {
		l.reg.cfg.Metrics.reloaded("unchanged")
		return false, nil
	}
	man, err := LoadManifest(l.path)
	if err != nil {
		l.reg.cfg.Metrics.reloaded("error")
		return false, err
	}
	if err := l.reg.Apply(man, l.dir); err != nil {
		l.reg.cfg.Metrics.reloaded("error")
		return false, err
	}
	// Re-stat after the load so a file rewritten mid-apply is picked up by
	// the next poll instead of being masked by a pre-apply stamp.
	if stamps, err = l.stat(); err == nil {
		l.stamps = stamps
	}
	l.reg.cfg.Metrics.reloaded("ok")
	return true, nil
}

// stat collects stamps for the manifest and every model file it references.
func (l *Loader) stat() (map[string]fileStamp, error) {
	stamps := make(map[string]fileStamp)
	fi, err := os.Stat(l.path)
	if err != nil {
		return nil, fmt.Errorf("registry: stat manifest: %w", err)
	}
	stamps[l.path] = stampOf(fi)
	man, err := LoadManifest(l.path)
	if err != nil {
		return nil, err
	}
	for _, mm := range man.Models {
		for _, mv := range mm.Versions {
			path := mv.Path
			if !filepath.IsAbs(path) {
				path = filepath.Join(l.dir, path)
			}
			fi, err := os.Stat(path)
			if err != nil {
				return nil, fmt.Errorf("registry: stat model file: %w", err)
			}
			stamps[path] = stampOf(fi)
		}
	}
	return stamps, nil
}

func (l *Loader) sameStamps(now map[string]fileStamp) bool {
	if len(now) != len(l.stamps) {
		return false
	}
	for path, s := range now {
		if prev, ok := l.stamps[path]; !ok || prev != s {
			return false
		}
	}
	return true
}

// Watch polls for manifest/model-file changes every interval until ctx ends,
// applying reloads as they appear. Errors are reported through logf (a bad
// manifest must not kill serving — the previous configuration keeps
// running) and retried on the next tick.
func (l *Loader) Watch(ctx context.Context, interval time.Duration, logf func(format string, args ...any)) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			if changed, err := l.Reload(false); err != nil {
				logf("manifest reload: %v", err)
			} else if changed {
				logf("manifest reloaded")
			}
		}
	}
}

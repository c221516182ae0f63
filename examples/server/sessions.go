// Session-fleet endpoints: the resident per-device streaming tier
// (internal/session) layered on the same registry the predict endpoints
// serve through. Every device gets a long-lived session holding its window
// ring, standardizer moments, surprisal history, and drift gate; each
// ingested sample advances that state and — when a window completes — runs
// the model and returns the gate's verdict.
//
//	POST   /v1/sessions/{id}/ingest    {"sample": [..]} → verdict
//	DELETE /v1/sessions/{id}           evict the device's session
//	GET    /v1/sessions                fleet stats (resident, gated, evicted)
//
// The fleet is configured from the manifest's "sessions" block (manifest
// mode) or the -sessions* flags (-model/demo modes). When a snapshot path
// is configured the whole fleet persists across restarts: restore at
// startup, periodic snapshots while running, and a final snapshot during
// graceful shutdown — a restarted server continues every device's verdict
// stream bit for bit.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"time"

	apds "github.com/apdeepsense/apdeepsense"
)

// sessionSettings is the resolved fleet configuration: the manager config
// plus which model predicts and where the fleet snapshot persists.
type sessionSettings struct {
	model            string
	cfg              apds.SessionConfig
	snapshotPath     string
	snapshotInterval time.Duration
}

// sessionSettingsFromManifest maps a manifest "sessions" block onto manager
// config. A relative snapshot path resolves against the manifest directory,
// like model version paths.
func sessionSettingsFromManifest(ms *apds.ModelManifestSessions, baseDir string) (*sessionSettings, error) {
	idle, err := ms.ParsedIdleTimeout()
	if err != nil {
		return nil, err
	}
	every, err := ms.ParsedSnapshotInterval()
	if err != nil {
		return nil, err
	}
	path := ms.SnapshotPath
	if path != "" && !filepath.IsAbs(path) {
		path = filepath.Join(baseDir, path)
	}
	return &sessionSettings{
		model: ms.Model,
		cfg: apds.SessionConfig{
			Channels: ms.Channels, Length: ms.Length, Stride: ms.Stride,
			Standardize:    ms.Standardize,
			WarmupWindows:  ms.WarmupWindows,
			DriftThreshold: ms.DriftThreshold,
			EscalateAfter:  ms.EscalateAfter,
			ReadmitAfter:   ms.ReadmitAfter,
			IdleTimeout:    idle,
		},
		snapshotPath:     path,
		snapshotInterval: every,
	}, nil
}

// initSessions builds the fleet manager over a registry-predict closure —
// the closure resolves the live model version per batch, so hot-swaps apply
// to session predictions transparently — and restores the fleet from the
// configured snapshot when one exists on disk.
func (s *service) initSessions(sess *sessionSettings) error {
	sess.cfg.Metrics = apds.NewSessionMetrics(s.metrics.reg)
	model := sess.model
	predict := func(ctx context.Context, rows []apds.Vector) ([]apds.GaussianVec, error) {
		gs, _, err := s.reg.PredictBatch(ctx, model, "sessions", rows)
		return gs, err
	}
	mgr, err := apds.NewSessionManager(sess.cfg, predict)
	if err != nil {
		return err
	}
	if sess.snapshotPath != "" {
		f, err := os.Open(sess.snapshotPath)
		switch {
		case errors.Is(err, os.ErrNotExist):
			// First boot: nothing to restore.
		case err != nil:
			return fmt.Errorf("open session snapshot: %w", err)
		default:
			info, rerr := mgr.Restore(f)
			f.Close()
			if rerr != nil {
				// A bad snapshot must not keep the fleet down. Restore may
				// leave a partial prefix behind, so discard the manager and
				// start empty instead of serving half a fleet.
				log.Printf("session snapshot %s rejected, starting empty: %v", sess.snapshotPath, rerr)
				if mgr, err = apds.NewSessionManager(sess.cfg, predict); err != nil {
					return err
				}
			} else {
				log.Printf("restored %d sessions (%d bytes) from %s", info.Sessions, info.Bytes, sess.snapshotPath)
			}
		}
	}
	s.sessions = mgr
	s.sessionCfg = sess
	return nil
}

// startSessionLoops launches the background idle-eviction sweep and the
// periodic snapshot writer, both bound to ctx.
func (s *service) startSessionLoops(ctx context.Context) {
	if s.sessions == nil {
		return
	}
	if s.sessionCfg.cfg.IdleTimeout > 0 {
		go s.sessions.Run(ctx, 0) // 0 = the manager's own wheel tick
	}
	if s.sessionCfg.snapshotInterval > 0 && s.sessionCfg.snapshotPath != "" {
		go func() {
			t := time.NewTicker(s.sessionCfg.snapshotInterval)
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
					if err := s.snapshotSessions(); err != nil {
						log.Printf("session snapshot: %v", err)
					}
				}
			}
		}()
	}
}

// snapshotSessions writes the fleet snapshot atomically (temp file +
// rename), retrying the documented mid-pass shrink race (a concurrent evict
// between the count pass and the write pass).
func (s *service) snapshotSessions() error {
	if s.sessions == nil || s.sessionCfg.snapshotPath == "" {
		return nil
	}
	path := s.sessionCfg.snapshotPath
	tmp := path + ".tmp"
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		f, err := os.Create(tmp)
		if err != nil {
			return err
		}
		info, err := s.sessions.Snapshot(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err == nil {
			if err := os.Rename(tmp, path); err != nil {
				return err
			}
			log.Printf("session snapshot: %d sessions, %d bytes -> %s", info.Sessions, info.Bytes, path)
			return nil
		}
		lastErr = err
		if !errors.Is(err, apds.ErrSessionSnapshot) {
			break
		}
	}
	os.Remove(tmp)
	return lastErr
}

// closeSessions runs the shutdown sequence: a final snapshot (handlers have
// already drained, so the fleet is quiescent) and then manager close.
func (s *service) closeSessions(ctx context.Context) error {
	if s.sessions == nil {
		return nil
	}
	err := s.snapshotSessions()
	if cerr := s.sessions.Close(ctx); err == nil {
		err = cerr
	}
	return err
}

// maxIngestBytes bounds one ingest body: a single multi-channel sample is a
// few hundred bytes; 64 KiB leaves room for very wide sensors.
const maxIngestBytes = 1 << 16

type ingestRequest struct {
	Sample []float64 `json:"sample"`
}

// ingestResponse is one sample's verdict. The gate fields are meaningful
// only when Window is true (the sample completed a window and the model
// ran); otherwise the sample just advanced the ring. Mean and Std are
// omitted when any of their values is not finite, and MeanStd when it is
// not finite, as on every Degenerate verdict: JSON cannot carry NaN or ±Inf.
type ingestResponse struct {
	Window     bool      `json:"window"`
	Mean       []float64 `json:"mean,omitempty"`
	Std        []float64 `json:"std,omitempty"`
	MeanStd    float64   `json:"mean_std,omitempty"`
	Z          float64   `json:"z,omitempty"`
	Score      float64   `json:"score,omitempty"`
	Decision   string    `json:"decision,omitempty"`
	Degenerate bool      `json:"degenerate,omitempty"`
}

// handleSessionIngest serves POST /v1/sessions/{id}/ingest.
func (s *service) handleSessionIngest(w http.ResponseWriter, r *http.Request) {
	var req ingestRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxIngestBytes))
	if err := dec.Decode(&req); err != nil {
		http.Error(w, fmt.Sprintf("bad request: %v", err), http.StatusBadRequest)
		return
	}
	if req.Sample == nil {
		http.Error(w, `bad request: missing "sample"`, http.StatusBadRequest)
		return
	}
	for _, v := range req.Sample {
		if !finite(v) {
			http.Error(w, "bad request: non-finite value in sample", http.StatusBadRequest)
			return
		}
	}
	v, err := s.sessions.Ingest(r.Context(), r.PathValue("id"), req.Sample)
	if err != nil {
		sessionError(w, err)
		return
	}
	resp := ingestResponse{Window: v.Window}
	if v.Window {
		if std := stds(v.Pred); finiteAll(v.Pred.Mean) && finiteAll(std) {
			resp.Mean, resp.Std = v.Pred.Mean, std
		}
		if finite(v.MeanStd) {
			resp.MeanStd = v.MeanStd
		}
		resp.Z, resp.Score = v.Z, v.Score
		resp.Decision = v.Decision.String()
		resp.Degenerate = v.Degenerate
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(resp); err != nil {
		log.Printf("encode ingest: %v", err)
	}
}

// sessionError maps fleet failures to HTTP semantics: a malformed device ID
// or sample is the client's fault (400), a session evicted mid-prediction
// is a retryable conflict (409 — re-ingesting recreates it), a closing
// manager is the service going away (503), and everything else falls
// through to the predict mapping (queue overload, model errors).
func sessionError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, apds.ErrSessionConfig):
		http.Error(w, fmt.Sprintf("bad request: %v", err), http.StatusBadRequest)
	case errors.Is(err, apds.ErrSessionEvicted):
		http.Error(w, err.Error(), http.StatusConflict)
	case errors.Is(err, apds.ErrSessionClosed):
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	default:
		predictError(w, err)
	}
}

// handleSessionEvict serves DELETE /v1/sessions/{id}.
func (s *service) handleSessionEvict(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.sessions.Evict(id) {
		http.Error(w, "unknown session", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(map[string]any{"evicted": id}); err != nil {
		log.Printf("encode evict: %v", err)
	}
}

// handleSessions serves GET /v1/sessions: fleet-wide counters.
func (s *service) handleSessions(w http.ResponseWriter, _ *http.Request) {
	st := s.sessions.Stats()
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(map[string]any{
		"model": s.sessionCfg.model,
		"stats": st,
	}); err != nil {
		log.Printf("encode sessions: %v", err)
	}
}

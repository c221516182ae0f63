package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	apds "github.com/apdeepsense/apdeepsense"
)

// sessionTestSettings shapes the fleet to the 2-input test network: one
// 2-channel sample per window, so every ingest completes a window.
func sessionTestSettings(snapshotPath string) *sessionSettings {
	return &sessionSettings{
		model: defaultModel,
		cfg: apds.SessionConfig{
			Channels: 2, Length: 1, Stride: 1,
			Standardize:   true,
			WarmupWindows: 2,
			Shards:        16,
		},
		snapshotPath: snapshotPath,
	}
}

// sessionTestService is testService plus an initialized session fleet.
func sessionTestService(t *testing.T, sess *sessionSettings) *service {
	t.Helper()
	svc := testService(t)
	if err := svc.initSessions(sess); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := svc.sessions.Close(ctx); err != nil {
			t.Errorf("session close: %v", err)
		}
	})
	return svc
}

func ingestBody(sample ...float64) string {
	b, _ := json.Marshal(map[string]any{"sample": sample})
	return string(b)
}

func TestSessionIngestEndpoint(t *testing.T) {
	svc := sessionTestService(t, sessionTestSettings(""))
	mux := svc.mux()

	rec := do(t, mux, http.MethodPost, "/v1/sessions/dev1/ingest", ingestBody(0.5, -1))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var resp ingestResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Window {
		t.Fatalf("1-sample windows must complete on every ingest: %+v", resp)
	}
	if len(resp.Mean) != 1 || len(resp.Std) != 1 || resp.Decision != "accept" {
		t.Fatalf("unexpected verdict: %s", rec.Body)
	}

	// The verdict must carry the same prediction /predict returns for the
	// standardized window. With a single observation the standardizer maps
	// the window to the zero vector (the running mean IS the window), so
	// the equivalent direct predict input is [0, 0].
	pRec := do(t, mux, http.MethodPost, "/v1/models/default/predict", `{"input":[0,0]}`)
	if pRec.Code != http.StatusOK {
		t.Fatalf("predict status %d", pRec.Code)
	}
	var pResp predictResponse
	if err := json.Unmarshal(pRec.Body.Bytes(), &pResp); err != nil {
		t.Fatal(err)
	}
	if pResp.Mean[0] != resp.Mean[0] || pResp.Std[0] != resp.Std[0] {
		t.Fatalf("session prediction %v/%v != predict endpoint %v/%v",
			resp.Mean, resp.Std, pResp.Mean, pResp.Std)
	}

	// Client-side rejections.
	for name, body := range map[string]string{
		"malformed":   `{not json`,
		"missing":     `{}`,
		"wrong width": ingestBody(1, 2, 3),
	} {
		rec := do(t, mux, http.MethodPost, "/v1/sessions/dev1/ingest", body)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, rec.Code)
		}
	}
	rec = do(t, mux, http.MethodPost, "/v1/sessions/dev1/ingest", `{"sample":[1,"NaN"]}`)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("non-numeric sample value: status %d, want 400", rec.Code)
	}
}

func TestSessionEvictAndStatsEndpoints(t *testing.T) {
	svc := sessionTestService(t, sessionTestSettings(""))
	mux := svc.mux()

	for i := 0; i < 3; i++ {
		rec := do(t, mux, http.MethodPost, fmt.Sprintf("/v1/sessions/dev%d/ingest", i), ingestBody(0.1, 0.2))
		if rec.Code != http.StatusOK {
			t.Fatalf("ingest dev%d: %d", i, rec.Code)
		}
	}

	rec := do(t, mux, http.MethodGet, "/v1/sessions", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("stats status %d", rec.Code)
	}
	var stats struct {
		Model string            `json:"model"`
		Stats apds.SessionStats `json:"stats"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Model != defaultModel || stats.Stats.Resident != 3 || stats.Stats.Ingested != 3 {
		t.Fatalf("unexpected stats: %s", rec.Body)
	}

	if rec := do(t, mux, http.MethodDelete, "/v1/sessions/dev1", ""); rec.Code != http.StatusOK {
		t.Fatalf("evict status %d: %s", rec.Code, rec.Body)
	}
	if rec := do(t, mux, http.MethodDelete, "/v1/sessions/dev1", ""); rec.Code != http.StatusNotFound {
		t.Fatalf("double evict status %d, want 404", rec.Code)
	}
	if svc.sessions.Resident() != 2 {
		t.Fatalf("resident %d after evict, want 2", svc.sessions.Resident())
	}
}

// TestSessionRestartContinuity is the server-level acceptance test: drive a
// fleet through the HTTP handlers, snapshot to disk, boot a second service
// over the same snapshot path, and require the continuation verdicts —
// compared as raw response bodies, so float bits included — to be identical
// between the server that never restarted and the one that did.
func TestSessionRestartContinuity(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "fleet.apsf")
	svc1 := sessionTestService(t, sessionTestSettings(snap))
	mux1 := svc1.mux()

	// Device IDs stay slash-free: {id} is one ServeMux path segment (IDs
	// containing '/' must be percent-encoded by clients).
	devs := []string{"fleet-a.dev0", "fleet-a.dev1", "fleet-b.dev0"}
	drive := func(mux http.Handler, round int) []string {
		var bodies []string
		for i := 0; i < 10; i++ {
			for d, dev := range devs {
				x := float64(round*10+i)*0.3 + float64(d)
				rec := do(t, mux.(*http.ServeMux), http.MethodPost, "/v1/sessions/"+dev+"/ingest",
					ingestBody(x, -x/2))
				if rec.Code != http.StatusOK {
					t.Fatalf("ingest %s: %d (%s)", dev, rec.Code, rec.Body)
				}
				bodies = append(bodies, rec.Body.String())
			}
		}
		return bodies
	}
	drive(mux1, 0)

	if err := svc1.snapshotSessions(); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(snap); err != nil || fi.Size() == 0 {
		t.Fatalf("snapshot file: %v (size %v)", err, fi)
	}

	// "Restart": a second service (same model seed, same settings) restores
	// the fleet from disk in initSessions.
	svc2 := sessionTestService(t, sessionTestSettings(snap))
	if svc2.sessions.Resident() != len(devs) {
		t.Fatalf("restored resident = %d, want %d", svc2.sessions.Resident(), len(devs))
	}
	mux2 := svc2.mux()

	v1 := drive(mux1, 1)
	v2 := drive(mux2, 1)
	for i := range v1 {
		if v1[i] != v2[i] {
			t.Fatalf("verdict %d diverged across restart:\n orig %s\n rest %s", i, v1[i], v2[i])
		}
	}
}

// TestSessionBadSnapshotStartsEmpty: a corrupt snapshot on disk must not
// keep the server from booting — the fleet starts empty instead.
func TestSessionBadSnapshotStartsEmpty(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "fleet.apsf")
	if err := os.WriteFile(snap, []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	svc := sessionTestService(t, sessionTestSettings(snap))
	if svc.sessions.Resident() != 0 {
		t.Fatalf("resident = %d, want 0", svc.sessions.Resident())
	}
	// The fleet still works.
	rec := do(t, svc.mux(), http.MethodPost, "/v1/sessions/dev/ingest", ingestBody(1, 2))
	if rec.Code != http.StatusOK {
		t.Fatalf("ingest after bad snapshot: %d", rec.Code)
	}
}

// TestSessionRoutesAbsentWithoutFleet: a service without a configured fleet
// must not expose the session endpoints.
func TestSessionRoutesAbsentWithoutFleet(t *testing.T) {
	svc := testService(t)
	rec := do(t, svc.mux(), http.MethodPost, "/v1/sessions/dev/ingest", ingestBody(1, 2))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("status %d, want 404", rec.Code)
	}
}

// TestSessionManifestSettings: the manifest "sessions" block configures the
// fleet end to end through newService.
func TestSessionManifestSettings(t *testing.T) {
	dir := t.TempDir()
	if err := testNetwork(t, 3).SaveFile(filepath.Join(dir, "a.model")); err != nil {
		t.Fatal(err)
	}
	manPath := filepath.Join(dir, "registry.json")
	writeTestManifest(t, manPath, apds.ModelManifest{
		Models: []apds.ModelManifestModel{{
			Name:     "demo",
			Versions: []apds.ModelManifestVersion{{ID: "v1", Path: "a.model"}},
			Current:  "v1",
		}},
		Sessions: &apds.ModelManifestSessions{
			Model: "demo", Channels: 2, Length: 1, Stride: 1,
			Standardize: true, WarmupWindows: 2,
			SnapshotPath: "fleet.apsf", SnapshotInterval: "1h",
		},
	})

	svc, err := newService("", manPath, apds.ServeConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := svc.closeSessions(ctx); err != nil {
			t.Errorf("session close: %v", err)
		}
		if err := svc.close(ctx); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	if svc.sessions == nil {
		t.Fatal("manifest sessions block did not build a fleet")
	}
	if got := svc.sessionCfg.snapshotPath; got != filepath.Join(dir, "fleet.apsf") {
		t.Fatalf("snapshot path %q not resolved against manifest dir", got)
	}
	if svc.sessionCfg.snapshotInterval != time.Hour {
		t.Fatalf("snapshot interval %v", svc.sessionCfg.snapshotInterval)
	}
	rec := do(t, svc.mux(), http.MethodPost, "/v1/sessions/dev/ingest", ingestBody(0.5, -1))
	if rec.Code != http.StatusOK {
		t.Fatalf("manifest-configured ingest: %d (%s)", rec.Code, rec.Body)
	}
	// closeSessions (cleanup) writes the shutdown snapshot; prove the write
	// path works under the manifest-resolved path.
	if err := svc.snapshotSessions(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "fleet.apsf")); err != nil {
		t.Fatal(err)
	}
}

// TestNonFinitePrediction: a finite input can still drive the network's
// moments past float64 range. /predict answers 422 naming the row instead
// of a 200 with an empty body, and an ingest answers a degenerate escalate
// verdict without the non-finite fields JSON cannot carry.
func TestNonFinitePrediction(t *testing.T) {
	sess := sessionTestSettings("")
	sess.cfg.Standardize = false
	svc := sessionTestService(t, sess)
	mux := svc.mux()

	for _, tc := range []struct{ body, row string }{
		{`{"input":[1e300,1e300]}`, "input"},
		{`{"inputs":[[0.5,-1],[1e300,1e300]]}`, "inputs[1]"},
	} {
		rec := do(t, mux, http.MethodPost, "/v1/models/default/predict", tc.body)
		if rec.Code != http.StatusUnprocessableEntity || !strings.Contains(rec.Body.String(), tc.row) {
			t.Fatalf("%s: status %d body %q, want 422 naming %s", tc.body, rec.Code, rec.Body, tc.row)
		}
	}

	rec := do(t, mux, http.MethodPost, "/v1/sessions/dev1/ingest", ingestBody(1e300, 1e300))
	if rec.Code != http.StatusOK {
		t.Fatalf("ingest status %d: %s", rec.Code, rec.Body)
	}
	var raw map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &raw); err != nil {
		t.Fatalf("ingest body %q: %v", rec.Body, err)
	}
	if raw["window"] != true || raw["decision"] != "escalate" || raw["degenerate"] != true {
		t.Fatalf("ingest verdict %s, want a degenerate escalate window", rec.Body)
	}
	for _, k := range []string{"mean", "std", "mean_std"} {
		if _, ok := raw[k]; ok {
			t.Fatalf("ingest verdict %s carries %q", rec.Body, k)
		}
	}
}

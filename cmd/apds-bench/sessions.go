package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/apdeepsense/apdeepsense/internal/core"
	"github.com/apdeepsense/apdeepsense/internal/nn"
	"github.com/apdeepsense/apdeepsense/internal/report"
	"github.com/apdeepsense/apdeepsense/internal/session"
	"github.com/apdeepsense/apdeepsense/internal/tensor"
)

// Sessions bench shape: 3-channel samples, 8-sample windows, stride 4 — the
// stream example's geometry, giving 24-dim model inputs.
const (
	sessChannels = 3
	sessLength   = 8
	sessStride   = 4
)

// sessionBenchReport is BENCH_stream.json. Key naming follows the benchdiff
// contract: *_per_sec rates are gated (scale-independent per-item costs),
// *_sec absolute durations and raw counts are informational (they scale with
// -session-count, which differs between the committed run and CI smoke).
type sessionBenchReport struct {
	Shape      string `json:"shape"`
	Network    string `json:"network"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Timestamp  string `json:"timestamp"`

	// Fleet scale and footprint.
	ResidentSessions int     `json:"resident_sessions"`
	SessionBytes     float64 `json:"session_bytes"` // heap bytes per resident session

	// Arena throughput.
	CreatePerSec  float64 `json:"create_per_sec"`
	IngestPerSec  float64 `json:"ingest_per_sec"`
	WindowsPerSec float64 `json:"windows_per_sec"`
	StreamDevices int     `json:"stream_devices"`

	// Whole-fleet persistence.
	SnapshotSec      float64 `json:"snapshot_sec"`
	SnapshotBytes    int64   `json:"snapshot_bytes"`
	RestoreSec       float64 `json:"restore_sec"`
	RestoredSessions int     `json:"restored_sessions"`

	// Timing-wheel idle eviction over the whole fleet.
	ChurnEvicted int     `json:"churn_evicted"`
	ChurnPerSec  float64 `json:"churn_per_sec"`

	// VerdictContinuity: restored fleet's continuation verdicts are
	// bit-identical to the never-restarted fleet's.
	VerdictContinuity bool `json:"verdict_continuity"`
}

// sessSample derives a deterministic 3-channel sample from (device, step):
// cheap arithmetic instead of an RNG so the hot loops measure the arena, and
// reproducible so the continuity check can replay identical streams.
func sessSample(dev, step int) []float64 {
	v := math.Sin(float64(dev)*0.001+float64(step)*0.37) + float64(step%5)*0.2
	return []float64{v, v * 0.5, 1 - v}
}

// emitSessionsBench measures the resident session fleet (internal/session)
// end to end: create `count` sessions, stream windows through a subset,
// snapshot the whole fleet to disk, restore it into a second manager, prove
// verdict continuity, and churn the fleet through the idle-eviction wheel.
// Results land in BENCH_stream.json under dir.
func emitSessionsBench(dir string, count, streamDevs int) error {
	if count < 1 {
		return fmt.Errorf("sessions bench: -session-count %d < 1", count)
	}
	if streamDevs > count {
		streamDevs = count
	}
	net, err := nn.New(nn.Config{
		InputDim: sessChannels * sessLength, Hidden: []int{32}, OutputDim: 1,
		Activation: nn.ActReLU, OutputActivation: nn.ActIdentity,
		KeepProb: 0.9, Seed: 1,
	})
	if err != nil {
		return fmt.Errorf("sessions bench: %w", err)
	}
	est, err := core.NewApDeepSense(net, core.Options{}, 0)
	if err != nil {
		return fmt.Errorf("sessions bench: %w", err)
	}
	predict := func(_ context.Context, rows []tensor.Vector) ([]core.GaussianVec, error) {
		return core.PredictBatch(est, rows, 0)
	}

	// A controllable clock: the fleet stays untouched by wall time, and the
	// churn phase advances it past the idle timeout on demand.
	const idle = time.Hour
	now := time.Unix(1_700_000_000, 0)
	clock := func() time.Time { return now }
	cfg := session.Config{
		Channels: sessChannels, Length: sessLength, Stride: sessStride,
		Standardize: true, WarmupWindows: 2,
		Shards: 1024, IdleTimeout: idle, Clock: clock,
	}
	m, err := session.NewManager(cfg, predict)
	if err != nil {
		return fmt.Errorf("sessions bench: %w", err)
	}
	ctx := context.Background()
	dev := func(i int) string { return fmt.Sprintf("f%d/d%d", i&1023, i) }

	rep := sessionBenchReport{
		Shape:      fmt.Sprintf("%dch x %d len / stride %d", sessChannels, sessLength, sessStride),
		Network:    fmt.Sprintf("%d-32-1", sessChannels*sessLength),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
	}

	// Phase 1 — create: first ingest of every device allocates its slot.
	heapBefore := heapInUse()
	start := time.Now()
	for i := 0; i < count; i++ {
		if _, err := m.Ingest(ctx, dev(i), sessSample(i, 0)); err != nil {
			return fmt.Errorf("sessions bench: create: %w", err)
		}
	}
	createSecs := time.Since(start).Seconds()
	rep.ResidentSessions = m.Resident()
	rep.CreatePerSec = float64(count) / createSecs
	rep.SessionBytes = float64(heapInUse()-heapBefore) / float64(count)

	// Phase 2 — stream: a subset of devices runs to window completion
	// (Length-1 more samples fill the first window, Stride more cut the
	// second), measuring steady-state ingest and window throughput.
	perDev := sessLength - 1 + sessStride
	start = time.Now()
	for i := 0; i < streamDevs; i++ {
		d := dev(i)
		for step := 1; step <= perDev; step++ {
			if _, err := m.Ingest(ctx, d, sessSample(i, step)); err != nil {
				return fmt.Errorf("sessions bench: stream: %w", err)
			}
		}
	}
	streamSecs := time.Since(start).Seconds()
	st := m.Stats()
	rep.StreamDevices = streamDevs
	rep.IngestPerSec = float64(streamDevs*perDev) / streamSecs
	rep.WindowsPerSec = float64(st.Windows) / streamSecs

	// Phase 3 — snapshot the whole resident fleet to disk.
	snapPath := filepath.Join(os.TempDir(), fmt.Sprintf("apds-bench-fleet-%d.apsf", os.Getpid()))
	defer os.Remove(snapPath)
	f, err := os.Create(snapPath)
	if err != nil {
		return fmt.Errorf("sessions bench: %w", err)
	}
	start = time.Now()
	info, err := m.Snapshot(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("sessions bench: snapshot: %w", err)
	}
	rep.SnapshotSec = time.Since(start).Seconds()
	rep.SnapshotBytes = info.Bytes

	// Phase 4 — restore into a fresh manager (the "restarted node").
	m2, err := session.NewManager(cfg, predict)
	if err != nil {
		return fmt.Errorf("sessions bench: %w", err)
	}
	rf, err := os.Open(snapPath)
	if err != nil {
		return fmt.Errorf("sessions bench: %w", err)
	}
	start = time.Now()
	rinfo, err := m2.Restore(rf)
	rf.Close()
	if err != nil {
		return fmt.Errorf("sessions bench: restore: %w", err)
	}
	rep.RestoreSec = time.Since(start).Seconds()
	rep.RestoredSessions = rinfo.Sessions

	// Phase 5 — verdict continuity: identical continuation streams into the
	// original and the restored fleet must gate identically, bit for bit.
	rep.VerdictContinuity = true
	contDevs := streamDevs
	if contDevs > 1000 {
		contDevs = 1000
	}
	for i := 0; i < contDevs; i++ {
		d := dev(i)
		for step := perDev + 1; step <= perDev+sessStride; step++ {
			v1, err := m.Ingest(ctx, d, sessSample(i, step))
			if err != nil {
				return fmt.Errorf("sessions bench: continuity: %w", err)
			}
			v2, err := m2.Ingest(ctx, d, sessSample(i, step))
			if err != nil {
				return fmt.Errorf("sessions bench: continuity: %w", err)
			}
			if !sessVerdictsEqual(v1, v2) {
				rep.VerdictContinuity = false
			}
		}
	}

	// Phase 6 — churn: advance the clock past the idle timeout and drain
	// the whole fleet through the timing wheel.
	now = now.Add(idle + idle/16)
	start = time.Now()
	evicted := m.AdvanceTo(now)
	churnSecs := time.Since(start).Seconds()
	rep.ChurnEvicted = evicted
	rep.ChurnPerSec = float64(evicted) / churnSecs

	tbl := &report.Table{
		Title:   fmt.Sprintf("Resident session fleet: %d sessions (%s, net %s)", count, rep.Shape, rep.Network),
		Headers: []string{"metric", "value"},
		Rows: [][]string{
			{"resident sessions", fmt.Sprintf("%d", rep.ResidentSessions)},
			{"heap bytes/session", fmt.Sprintf("%.0f", rep.SessionBytes)},
			{"create/s", fmt.Sprintf("%.0f", rep.CreatePerSec)},
			{"ingest/s", fmt.Sprintf("%.0f", rep.IngestPerSec)},
			{"windows/s", fmt.Sprintf("%.0f", rep.WindowsPerSec)},
			{"snapshot", fmt.Sprintf("%.2fs (%d bytes)", rep.SnapshotSec, rep.SnapshotBytes)},
			{"restore", fmt.Sprintf("%.2fs (%d sessions)", rep.RestoreSec, rep.RestoredSessions)},
			{"idle churn", fmt.Sprintf("%d evicted @ %.0f/s", rep.ChurnEvicted, rep.ChurnPerSec)},
			{"verdict continuity", fmt.Sprintf("%v", rep.VerdictContinuity)},
		},
	}
	text, err := tbl.Render()
	if err != nil {
		return err
	}
	fmt.Println(text)
	if !rep.VerdictContinuity {
		return fmt.Errorf("sessions bench: restored fleet verdicts diverged from the original")
	}

	raw, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "BENCH_stream.json"), append(raw, '\n'), 0o644)
}

func sessVerdictsEqual(a, b session.Verdict) bool {
	if a.Window != b.Window || a.Decision != b.Decision || a.Degenerate != b.Degenerate ||
		math.Float64bits(a.MeanStd) != math.Float64bits(b.MeanStd) ||
		math.Float64bits(a.Z) != math.Float64bits(b.Z) ||
		math.Float64bits(a.Score) != math.Float64bits(b.Score) ||
		len(a.Pred.Mean) != len(b.Pred.Mean) || len(a.Pred.Var) != len(b.Pred.Var) {
		return false
	}
	for i := range a.Pred.Mean {
		if math.Float64bits(a.Pred.Mean[i]) != math.Float64bits(b.Pred.Mean[i]) {
			return false
		}
	}
	for i := range a.Pred.Var {
		if math.Float64bits(a.Pred.Var[i]) != math.Float64bits(b.Pred.Var[i]) {
			return false
		}
	}
	return true
}

// heapInUse forces a collection and reports live heap bytes, the basis of
// the bytes-per-session figure.
func heapInUse() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapInuse
}

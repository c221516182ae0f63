package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"github.com/apdeepsense/apdeepsense/internal/core"
	"github.com/apdeepsense/apdeepsense/internal/nn"
	"github.com/apdeepsense/apdeepsense/internal/session"
	"github.com/apdeepsense/apdeepsense/internal/stream"
	"github.com/apdeepsense/apdeepsense/internal/tensor"
)

const (
	// fleetDevices sizes the restored fleet. At ~870 heap bytes per session
	// the arena is ~170 MB, well past a 105 MiB last-level cache, so
	// uniformly drawn devices miss cache on most ingests.
	fleetDevices = 200_000
	// fleetPrefill is the samples every device ingests before the snapshot
	// the set-ups restore: two complete windows (8 samples, then 4 more).
	fleetPrefill = 12
	// fleetSubset is how many devices have every verdict replayed against
	// a reference manager that never restarted.
	fleetSubset  = 32
	subsetStride = fleetDevices / fleetSubset
)

func fleetConfig() session.Config {
	return session.Config{Channels: 3, Length: 8, Stride: 4, Standardize: true, WarmupWindows: 2, Shards: 1024}
}

var fleetIngest = &workload{
	name: "fleet-ingest",
	layers: []string{
		"loadgen.cpu_us_per_op", "setup.load_s", "setup.build_s",
		"session.restore_s", "session.restore_mb_per_s",
		"core.propagate_us_per_row", "core.l0.affine_us", "core.l0.activation_us", "core.l1.affine_us",
		"core.l1.activation_us", "core.activation_share", "core.b1_interp_us", "core.b1_compiled_us",
		"core.b64_interp_us_per_row", "core.b64_compiled_us_per_row", "core.scratch_hit_ratio",
		"session.ingest_self_us_mean", "session.predict_us_mean", "session.windows_per_kop",
		"session.bytes_per_session", "session.escalate_share",
		"runtime.alloc_kb_per_op", "runtime.gc_pause_ms", "trace.overhead_pct",
	},
	run: runFleet,
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// fleetStream is every device's sensor stream. Sample n of device d depends
// on (seed, d, n) alone, so the reference manager can replay any device
// without the stream being stored.
type fleetStream struct{ seed uint64 }

// sample writes sample n of device d into dst: a slow per-device
// oscillation plus uniform noise, with a rare 8× spike that makes the gate
// escalate.
func (s fleetStream) sample(d, n int, dst []float64) {
	h := splitmix64(s.seed ^ splitmix64(uint64(d)) ^ uint64(n)*0x9e3779b97f4a7c15)
	scale := 1.0
	if h%97 == 0 {
		scale = 8
	}
	for c := range dst {
		h = splitmix64(h)
		noise := float64(h>>11)/(1<<53) - 0.5
		dst[c] = scale * (math.Sin(0.3*float64(n)+float64(d%7)+float64(c)) + noise)
	}
}

// recorded is one ingest of a subset device.
type recorded struct {
	n int
	v session.Verdict
}

// fleet is fleet-ingest's state across set-up, windows and check.
type fleet struct {
	src    fleetStream
	ids    []string
	next   []int32 // next sample index per device
	opSeed uint64
	ops    uint64 // ingests issued across every window
	mgr    *session.Manager
	est    *core.ApDeepSense
	rec    map[int][]recorded
	buf    []float64

	windows, escalated int
	// tr and op, set during the traced window, record each prediction as
	// a child span of the ingest that triggered it.
	tr *tracer
	op int
}

// predict is the manager's PredictBatchFunc.
func (f *fleet) predict(_ context.Context, rows []tensor.Vector) ([]core.GaussianVec, error) {
	if f.tr == nil {
		return f.est.PredictBatch(rows)
	}
	t0 := time.Now()
	out, err := f.est.PredictBatch(rows)
	f.tr.record(f.op, "core.predict", "session.ingest", t0, time.Now())
	return out, err
}

// ingest feeds the next sample of a uniformly drawn device.
func (f *fleet) ingest(int) error {
	d := int(splitmix64(f.opSeed+f.ops) % fleetDevices)
	f.ops++
	n := int(f.next[d])
	f.next[d]++
	f.src.sample(d, n, f.buf)
	v, err := f.mgr.Ingest(context.Background(), f.ids[d], f.buf)
	if err != nil {
		return err
	}
	if v.Window {
		f.windows++
		if v.Decision == stream.Escalate {
			f.escalated++
		}
	}
	if d%subsetStride == 0 {
		f.rec[d] = append(f.rec[d], recorded{n, v})
	}
	return nil
}

// prefill ingests the first fleetPrefill samples of each device into m.
func (f *fleet) prefill(m *session.Manager, devices []int) error {
	buf := make([]float64, 3)
	for _, d := range devices {
		for n := 0; n < fleetPrefill; n++ {
			f.src.sample(d, n, buf)
			if _, err := m.Ingest(context.Background(), f.ids[d], buf); err != nil {
				return fmt.Errorf("prefill: %w", err)
			}
		}
	}
	return nil
}

// continuity replays every recorded ingest of the subset into ref, which
// ingested the same prefix and never restarted, and counts the verdicts
// that differ from what the restored fleet answered.
func (f *fleet) continuity(ref *session.Manager) (int, error) {
	devs := make([]int, 0, len(f.rec))
	for d := range f.rec {
		devs = append(devs, d)
	}
	sort.Ints(devs)
	bad := 0
	var first error
	buf := make([]float64, 3)
	for _, d := range devs {
		for _, r := range f.rec[d] {
			f.src.sample(d, r.n, buf)
			v, err := ref.Ingest(context.Background(), f.ids[d], buf)
			if err == nil && !sameVerdict(v, r.v) {
				err = fmt.Errorf("device %s sample %d: verdict differs from the uninterrupted reference", f.ids[d], r.n)
			}
			if err != nil {
				bad++
				if first == nil {
					first = err
				}
			}
		}
	}
	return bad, first
}

func sameVerdict(a, b session.Verdict) bool {
	return a.Window == b.Window && a.Decision == b.Decision && a.Degenerate == b.Degenerate &&
		sameBits([]float64{a.MeanStd, a.Z, a.Score}, []float64{b.MeanStd, b.Z, b.Score}) &&
		sameBits(a.Pred.Mean, b.Pred.Mean) && sameBits(a.Pred.Var, b.Pred.Var)
}

// writeSnapshot stores m's whole-fleet snapshot at path.
func writeSnapshot(m *session.Manager, path string) error {
	fh, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := m.Snapshot(fh); err != nil {
		fh.Close()
		return err
	}
	return fh.Close()
}

// restoreSnapshot restores the snapshot at path into m, as a device
// restarting from its last snapshot file would.
func restoreSnapshot(m *session.Manager, path string) (session.SnapshotInfo, error) {
	fh, err := os.Open(path)
	if err != nil {
		return session.SnapshotInfo{}, err
	}
	defer fh.Close()
	return m.Restore(fh)
}

func runFleet(cfg config) (*outcome, error) {
	modelBytes, err := fleetNet.encode()
	if err != nil {
		return nil, err
	}
	net, err := nn.Load(bytes.NewReader(modelBytes))
	if err != nil {
		return nil, err
	}
	f := &fleet{
		src:    fleetStream{seed: uint64(cfg.seed)},
		ids:    make([]string, fleetDevices),
		next:   make([]int32, fleetDevices),
		opSeed: splitmix64(uint64(cfg.seed) ^ 0xf1ee7),
		rec:    map[int][]recorded{},
		buf:    make([]float64, 3),
	}
	all := make([]int, fleetDevices)
	var subset []int
	for d := range f.ids {
		f.ids[d] = fmt.Sprintf("f%d/d%d", d%16, d)
		f.next[d] = fleetPrefill
		all[d] = d
		if d%subsetStride == 0 {
			subset = append(subset, d)
		}
	}
	if f.est, err = core.NewApDeepSense(net, core.Options{}, 0); err != nil {
		return nil, err
	}

	// The snapshot every set-up restores, and the never-restarted reference
	// for the continuity check. Neither is timed.
	pre, err := session.NewManager(fleetConfig(), f.predict)
	if err != nil {
		return nil, err
	}
	if err := f.prefill(pre, all); err != nil {
		return nil, err
	}
	snapPath := filepath.Join(cfg.work, fmt.Sprintf("fleet-%d.apsf", cfg.seed))
	if err := writeSnapshot(pre, snapPath); err != nil {
		return nil, err
	}
	defer os.Remove(snapPath)
	pre = nil
	ref, err := session.NewManager(fleetConfig(), f.predict)
	if err != nil {
		return nil, err
	}
	if err := f.prefill(ref, subset); err != nil {
		return nil, err
	}

	warm := inputRows(rand.New(rand.NewSource(cfg.seed)), warmCalls, fleetNet.in)
	var loads, builds, restores, total []float64
	var perSession, snapMB float64
	setup := func() error {
		f.mgr = nil
		debug.FreeOSMemory()
		heap0 := float64(readRuntime().HeapAlloc)
		t0 := time.Now()
		if net, err = nn.Load(bytes.NewReader(modelBytes)); err != nil {
			return err
		}
		t1 := time.Now()
		if f.est, err = core.NewApDeepSense(net, core.Options{}, 0); err != nil {
			return err
		}
		if _, err := f.est.PredictBatch(warm); err != nil {
			return err
		}
		t2 := time.Now()
		if f.mgr, err = session.NewManager(fleetConfig(), f.predict); err != nil {
			return err
		}
		info, err := restoreSnapshot(f.mgr, snapPath)
		if err != nil {
			return err
		}
		t3 := time.Now()
		if info.Sessions != fleetDevices {
			return fmt.Errorf("restored %d sessions, want %d", info.Sessions, fleetDevices)
		}
		loads = append(loads, t1.Sub(t0).Seconds())
		builds = append(builds, t2.Sub(t1).Seconds())
		restores = append(restores, t3.Sub(t2).Seconds())
		total = append(total, t3.Sub(t0).Seconds())
		snapMB = float64(info.Bytes) / 1e6
		runtime.GC()
		perSession = (float64(readRuntime().HeapAlloc) - heap0) / fleetDevices
		return nil
	}
	if err := repeatSetup(setup); err != nil {
		return nil, err
	}

	out := &outcome{report: map[string]any{
		"model":   fleetNet.String(),
		"loop":    "closed, 1 goroutine",
		"devices": fleetDevices,
	}}
	if !cfg.trace {
		m, err := timedInProcess(cfg.window(), f.ingest)
		if err != nil {
			return nil, err
		}
		failed, checkErr := f.continuity(ref)
		if out, err = windowOutcome(out, m.w, failed, checkErr); err != nil {
			return nil, err
		}
		m = inProcess{} // drop the window's arrays before the set-ups after it
		out.report["snapshot_mb"] = snapMB
		return out, setupOutcome(out, setup, &total)
	}

	lv := newLayerVals()
	out.report["snapshot_mb"] = snapMB
	lv.put("setup.load_s", median(loads))
	lv.put("setup.build_s", median(builds))
	restore := median(restores)
	lv.put("session.restore_s", restore)
	lv.put("session.restore_mb_per_s", snapMB/restore)
	lv.put("session.bytes_per_session", perSession)
	half := cfg.window() / 2
	ops0, windows0, escalated0 := f.ops, f.windows, f.escalated
	plain, err := timedInProcess(half, f.ingest)
	if err != nil {
		return nil, err
	}
	putInProcessLoad(lv, plain)
	windows := float64(f.windows - windows0)
	lv.put("session.windows_per_kop", 1000*windows/float64(f.ops-ops0))
	lv.put("session.escalate_share", ratio(float64(f.escalated-escalated0), windows))

	hc := &hookCounts{}
	f.est.Propagator().SetHooks(hc.hooks())
	tr := newTracer()
	f.tr = tr
	traced := closedLoop(half, reserved(len(plain.w.lat), half), noCPU, func(i int) error {
		f.op = int(f.ops)
		t0 := time.Now()
		err := f.ingest(i)
		tr.record(f.op, "session.ingest", "", t0, time.Now())
		return err
	})
	f.tr = nil
	f.est.Propagator().SetHooks(nil)
	self := tr.total["session.ingest"] - tr.total["core.predict"]
	lv.put("session.ingest_self_us_mean", ratio(float64(self.Nanoseconds())/1e3, float64(tr.count["session.ingest"])))
	lv.put("session.predict_us_mean", tr.meanUs("core.predict"))
	putHooks(lv, hc)
	putOverhead(lv, plain.w, traced)
	if err := probeCore(net, inputRows(rand.New(rand.NewSource(cfg.seed+1)), 64, fleetNet.in), 1, lv); err != nil {
		return nil, err
	}
	if err := tr.write(cfg.work, cfg.workload, cfg.seed); err != nil {
		return nil, err
	}
	out.report["spans"] = tr.count
	failed, checkErr := f.continuity(ref)
	return finishTraced(out, lv, failed, checkErr, plain.w, traced), nil
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"time"

	"github.com/apdeepsense/apdeepsense/internal/nn"
	"github.com/apdeepsense/apdeepsense/internal/tensor"
)

const (
	predictPath   = "/v1/models/default/predict"
	handlerSeries = `apds_http_request_seconds{route="/v1/models/{name}/predict"}`
)

// serverLayers are the per-layer metrics the server workload measures.
var serverLayers = []string{
	"loadgen.cpu_us_per_op", "setup.ready_s",
	"server.handler_us_mean", "server.transport_us_mean", "server.req_kb_per_op", "server.cpu_us_per_op",
	"server.alloc_kb_per_op", "server.gc_pause_ms",
	"serve.queue_wait_us_mean", "serve.timeout_flush_share", "serve.rows_per_flush", "serve.rejected",
	"core.propagate_us_per_row", "core.l0.affine_us", "core.l0.activation_us", "core.l1.affine_us",
	"core.l1.activation_us", "core.l2.affine_us", "core.l2.activation_us", "core.activation_share",
	"core.b1_interp_us", "core.b1_compiled_us", "core.b64_interp_us_per_row", "core.b64_compiled_us_per_row",
	"core.scratch_hit_ratio", "trace.overhead_pct",
}

var uploadBatch = &workload{
	name:   "upload-batch",
	layers: serverLayers,
	run: func(cfg config) (*outcome, error) {
		return runServerWorkload(cfg, serverSpec{model: denseTanh, rowsPerReq: 64})
	},
}

// serverSpec describes one server workload.
type serverSpec struct {
	model      modelSpec
	rowsPerReq int
}

// requestSet is the traffic of a server workload: a pool of distinct input
// rows, the request bodies built from them, and which body each operation
// sends.
type requestSet struct {
	pool   []tensor.Vector
	rowsOf [][]int // pool rows of each body, in order
	bodies [][]byte
	seq    []int // operation i sends bodies[seq[i%len(seq)]]
}

// newRequestSet draws the traffic from seed: 32 bodies of rowsPerReq rows
// drawn from the pool.
func newRequestSet(seed int64, spec serverSpec) (*requestSet, error) {
	rng := rand.New(rand.NewSource(seed))
	rs := &requestSet{pool: inputRows(rng, poolRows, spec.model.in)}
	const nBodies = 32
	for b := 0; b < nBodies; b++ {
		idx := inputSeq(rng, poolRows, spec.rowsPerReq)
		body, err := json.Marshal(map[string]any{"inputs": rowsOf(rs.pool, idx)})
		if err != nil {
			return nil, err
		}
		rs.rowsOf = append(rs.rowsOf, idx)
		rs.bodies = append(rs.bodies, body)
	}
	rs.seq = inputSeq(rng, nBodies, 1<<16)
	return rs, nil
}

// served is one stored response, checked after the window.
type served struct {
	body int
	resp []byte
}

type predictResponse struct {
	Results []struct {
		Mean []float64 `json:"mean"`
		Std  []float64 `json:"std"`
	} `json:"results"`
}

// checkResponses feeds every stored response to the checker and returns
// the number of operations whose response could not be decoded.
func checkResponses(rs *requestSet, chk *checker, resps []served) int {
	bad := 0
	for _, s := range resps {
		var pr predictResponse
		if err := json.Unmarshal(s.resp, &pr); err != nil {
			bad++
			continue
		}
		idx := rs.rowsOf[s.body]
		if len(pr.Results) != len(idx) {
			bad++
			continue
		}
		for k, r := range pr.Results {
			chk.observe(idx[k], answer{r.Mean, r.Std})
		}
	}
	return bad
}

// load runs the workload's traffic against srv for d from one closed-loop
// client, reading its slices' CPU from cpu, and returns the responses for
// checking. With tr set, each request is recorded as a span.
func (spec serverSpec) load(srv *server, rs *requestSet, d time.Duration, cpu func() time.Duration, tr *tracer) (window, []served) {
	var (
		buf   bytes.Buffer
		resps []served
	)
	w := closedLoop(d, window{}, cpu, func(i int) error {
		b := rs.seq[i%len(rs.seq)]
		t0 := time.Now()
		err := srv.post(context.Background(), predictPath, rs.bodies[b], &buf)
		if tr != nil {
			tr.record(i, "http.predict", "", t0, time.Now())
		}
		if err == nil {
			resps = append(resps, served{b, bytes.Clone(buf.Bytes())})
		}
		return err
	})
	return w, resps
}

func runServerWorkload(cfg config, spec serverSpec) (*outcome, error) {
	if cfg.serverBin == "" {
		return nil, fmt.Errorf("-server is required")
	}
	modelBytes, err := spec.model.encode()
	if err != nil {
		return nil, err
	}
	modelPath, err := writeModel(cfg.work, cfg.workload+".model", modelBytes)
	if err != nil {
		return nil, err
	}
	net, err := nn.Load(bytes.NewReader(modelBytes))
	if err != nil {
		return nil, err
	}
	rs, err := newRequestSet(cfg.seed, spec)
	if err != nil {
		return nil, err
	}
	// The server serves with observation variance 0.
	chk, err := newChecker(net, rs.pool, 0, true)
	if err != nil {
		return nil, err
	}

	logPath := filepath.Join(cfg.work, cfg.workload+".server.log")
	var setups []float64
	start := func() (*server, error) {
		s, d, err := startServer(cfg.serverBin, modelPath, logPath)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		return s, nil
	}
	// restart starts and stops the server; it is repeated before the timed
	// window and again after it, and the start after the repeats before the
	// window serves it.
	restart := func() error {
		s, err := start()
		if err != nil {
			return err
		}
		return s.stop()
	}
	if err := repeatSetup(restart); err != nil {
		return nil, err
	}
	srv, err := start()
	if err != nil {
		return nil, err
	}
	stopped := false
	stop := func() error {
		stopped = true
		return srv.stop()
	}
	defer func() {
		if !stopped {
			_ = srv.stop()
		}
	}()

	out := &outcome{report: map[string]any{
		"model":        spec.model.String(),
		"loop":         "closed, 1 connection",
		"rows_per_req": spec.rowsPerReq,
	}}
	d := cfg.window()
	if cfg.trace {
		d /= 2
	}
	spec.load(srv, rs, warmupFor(d), noCPU, nil)
	before, err := srv.scrape()
	if err != nil {
		return nil, err
	}
	c0 := selfCPU()
	var resps []served
	w, err := timed(srv.pid(), srv.pid(), func(cpu func() time.Duration) window {
		var w window
		w, resps = spec.load(srv, rs, d, cpu, nil)
		return w
	})
	if err != nil {
		return nil, fmt.Errorf("measure window: %w", err)
	}
	genCPU := selfCPU() - c0
	after, err := srv.scrape()
	if err != nil {
		return nil, err
	}

	if !cfg.trace {
		if err := stop(); err != nil {
			return nil, err
		}
		undecoded := checkResponses(rs, chk, resps)
		failed, checkErr := chk.verify()
		if out, err = windowOutcome(out, w, failed+undecoded, checkErr); err != nil {
			return nil, err
		}
		return out, setupOutcome(out, restart, &setups)
	}

	lv := newLayerVals()
	lv.put("setup.ready_s", median(setups))
	ops := float64(w.attempted)
	lv.put("loadgen.cpu_us_per_op", float64(genCPU.Microseconds())/ops)
	putServerLayers(lv, before, after, ops)
	reqBytes := 0
	for i := 0; i < w.attempted; i++ {
		reqBytes += len(rs.bodies[rs.seq[i%len(rs.seq)]])
	}
	lv.put("server.req_kb_per_op", float64(reqBytes)/1024/ops)

	tr := newTracer()
	traced, tresps := spec.load(srv, rs, d, noCPU, tr)
	final, err := srv.scrape()
	if err != nil {
		return nil, err
	}
	// The server's own histogram gives handler time over the traced window;
	// the rest of the client's round trip is transport.
	handler := deltaMean(after, final, handlerSeries) * 1e6
	lv.put("server.transport_us_mean", tr.meanUs("http.predict")-handler)
	putOverhead(lv, w, traced)
	if err := stop(); err != nil {
		return nil, err
	}
	if err := probeCore(net, rs.pool, spec.rowsPerReq, lv); err != nil {
		return nil, err
	}
	if err := tr.write(cfg.work, cfg.workload, cfg.seed); err != nil {
		return nil, err
	}
	out.report["spans"] = tr.count
	w.failed += checkResponses(rs, chk, append(resps, tresps...))
	failed, checkErr := chk.verify()
	return finishTraced(out, lv, failed, checkErr, w, traced), nil
}

// deltaMean is a histogram's mean between two scrapes: Δsum / Δcount.
func deltaMean(before, after scrape, series string) float64 {
	name, labels := series, ""
	if i := strings.IndexByte(series, '{'); i >= 0 {
		name, labels = series[:i], series[i:]
	}
	return ratio(delta(before, after, name+"_sum"+labels), delta(before, after, name+"_count"+labels))
}

// delta is the change of one series between two scrapes.
func delta(before, after scrape, series string) float64 {
	return after.series[series] - before.series[series]
}

// putServerLayers records the server, serve and core metrics the server
// exports, differenced across the untraced window.
func putServerLayers(lv *layerVals, before, after scrape, ops float64) {
	lv.put("server.handler_us_mean", deltaMean(before, after, handlerSeries)*1e6)
	lv.put("server.cpu_us_per_op", float64((after.cpu-before.cpu).Microseconds())/ops)
	lv.put("server.alloc_kb_per_op", (after.heapUint("TotalAlloc")-before.heapUint("TotalAlloc"))/1024/ops)
	lv.put("server.gc_pause_ms", float64(after.pauseSince(before).Nanoseconds())/1e6)

	lv.put("serve.queue_wait_us_mean", deltaMean(before, after, "apds_serve_queue_wait_seconds")*1e6)
	flushes := 0.0
	for _, reason := range []string{"size", "timeout", "idle", "drain"} {
		flushes += delta(before, after, `apds_serve_flushes_total{reason="`+reason+`"}`)
	}
	lv.put("serve.timeout_flush_share", ratio(delta(before, after, `apds_serve_flushes_total{reason="timeout"}`), flushes))
	lv.put("serve.rows_per_flush", deltaMean(before, after, "apds_serve_batch_rows"))
	lv.put("serve.rejected", delta(before, after, "apds_serve_rejected_total"))

	// The server's propagator hooks time every layer of every flush.
	layerSec := 0.0
	for series := range after.series {
		if strings.HasPrefix(series, "apds_propagate_layer_seconds_sum") {
			layerSec += delta(before, after, series)
		}
	}
	rows := delta(before, after, "apds_predict_batch_rows_sum")
	lv.put("core.propagate_us_per_row", ratio(layerSec*1e6, rows))
	hits := delta(before, after, `apds_scratch_pool_gets_total{result="hit"}`)
	misses := delta(before, after, `apds_scratch_pool_gets_total{result="miss"}`)
	lv.put("core.scratch_hit_ratio", ratio(hits, hits+misses))
}

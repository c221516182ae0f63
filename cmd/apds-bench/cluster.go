package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/apdeepsense/apdeepsense/internal/cluster"
	"github.com/apdeepsense/apdeepsense/internal/core"
	"github.com/apdeepsense/apdeepsense/internal/nn"
	"github.com/apdeepsense/apdeepsense/internal/obs"
	"github.com/apdeepsense/apdeepsense/internal/report"
	"github.com/apdeepsense/apdeepsense/internal/serve"
	"github.com/apdeepsense/apdeepsense/internal/tensor"
)

// The cluster benchmark measures the sharded serving tier end to end: N
// replica processes (this same binary re-exec'd with -cluster-replica), a
// cluster.Router front door, and an open-loop load generator. Each replica
// carries a token-bucket admission budget, which is what makes replica
// scaling measurable on a small box: the replicas share cores, so raw CPU
// cannot distinguish 1 process from 4, but aggregate *admitted* throughput
// is budget-bound and scales with healthy replica count — exactly the
// production property the router exists to provide (scaling admission
// capacity, shedding the rest with honest Retry-After pricing).

// clusterScales is the replica-count sweep; the offered load stays fixed
// across the sweep so qps growth is pure scaling.
var clusterScales = []int{1, 2, 4}

// clusterScenario is one scenario row of BENCH_cluster.json. Field naming is
// benchdiff-aware: qps/speedup gate higher-is-better, *_micros gate
// lower-is-better, and counts/loads/offsets use neutral names so they stay
// informational.
type clusterScenario struct {
	Name        string  `json:"name"`
	Replicas    int     `json:"replicas"`
	OfferedLoad float64 `json:"offered_load"` // requests/second offered by the open loop
	DurationSec float64 `json:"window_sec"`
	Sent        int64   `json:"sent"`
	OK          int64   `json:"ok"`
	Failed      int64   `json:"failed"` // non-2xx plus transport errors seen by the client
	QPS         float64 `json:"qps"`    // successful requests per second
	// Speedup is this row's QPS over the 1-replica row's (scale rows only).
	Speedup    float64 `json:"speedup,omitempty"`
	P50Micros  float64 `json:"p50_micros"`
	P99Micros  float64 `json:"p99_micros"`
	P999Micros float64 `json:"p999_micros"`
	// Router-side event counts over the scenario window.
	Spills  float64 `json:"spills,omitempty"`
	Retries float64 `json:"retries,omitempty"`
	Shed    float64 `json:"shed,omitempty"`
	// Node-kill bookkeeping: the kill offset, the health-probe window after
	// it, and the failures falling before/after that window. The acceptance
	// property is FailedAfterWindow == 0.
	KillAtSec          float64 `json:"kill_at_sec,omitempty"`
	ProbeWindowSec     float64 `json:"probe_window_sec,omitempty"`
	FailedBeforeWindow int64   `json:"failed_before_window"`
	FailedAfterWindow  int64   `json:"failed_after_window"`
}

type clusterBenchReport struct {
	Network            string            `json:"network"`
	ReplicasMax        int               `json:"replicas_max"`
	CalibratedCapacity float64           `json:"calibrated_capacity"` // closed-loop rps of one unthrottled replica
	BudgetPerReplica   float64           `json:"budget_per_replica"`  // token-bucket rate per replica
	OfferedLoad        float64           `json:"offered_load"`        // fixed offered load for the scale sweep
	CellSec            float64           `json:"cell_sec"`
	GOMAXPROCS         int               `json:"gomaxprocs"`
	Timestamp          string            `json:"timestamp"`
	Scenarios          []clusterScenario `json:"scenarios"`
	// Speedup1To4 is the headline scaling number (4-replica qps over
	// 1-replica qps at fixed offered load); omitted on smaller sweeps.
	Speedup1To4 float64 `json:"speedup_1_to_4,omitempty"`
}

// --- replica child process ---------------------------------------------------

// runClusterReplica is the hidden -cluster-replica entry point: one serving
// replica (untrained 5-256-256-1 network behind the request coalescer) with
// an optional admission budget, speaking the same /predict + /readyz
// contract as examples/server. It prints "ADDR <url>" on stdout once
// listening and drains gracefully on SIGTERM/SIGINT.
func runClusterReplica(budgetRate float64, listen string) error {
	net5, err := nn.New(nn.Config{
		InputDim: 5, Hidden: []int{256, 256}, OutputDim: 1,
		Activation: nn.ActReLU, OutputActivation: nn.ActIdentity,
		KeepProb: 0.9, Seed: 1,
	})
	if err != nil {
		return fmt.Errorf("cluster replica: %w", err)
	}
	est, err := core.NewApDeepSense(net5, core.Options{}, 0)
	if err != nil {
		return fmt.Errorf("cluster replica: %w", err)
	}
	coal, err := serve.NewPredict(est, serve.Config{MaxBatch: 64, QueueDepth: 256})
	if err != nil {
		return fmt.Errorf("cluster replica: %w", err)
	}
	var budget *cluster.Budget
	if budgetRate > 0 {
		burst := math.Max(1, budgetRate/4)
		if budget, err = cluster.NewBudget(budgetRate, burst); err != nil {
			return fmt.Errorf("cluster replica: %w", err)
		}
	}

	mux := http.NewServeMux()
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	predict := func(w http.ResponseWriter, r *http.Request) {
		if budget != nil {
			if ok, wait := budget.Allow(); !ok {
				w.Header().Set("Retry-After", strconv.FormatInt(ceilSecs(wait), 10))
				http.Error(w, "replica budget exhausted", http.StatusTooManyRequests)
				return
			}
		}
		var in struct {
			Input []float64 `json:"input"`
		}
		if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&in); err != nil || len(in.Input) != 5 {
			http.Error(w, "want JSON {\"input\": [5 floats]}", http.StatusBadRequest)
			return
		}
		g, err := coal.Do(r.Context(), tensor.Vector(in.Input))
		if err != nil {
			status := http.StatusInternalServerError
			switch {
			case errors.Is(err, serve.ErrQueueFull):
				status = http.StatusTooManyRequests
			case errors.Is(err, serve.ErrClosed):
				status = http.StatusServiceUnavailable
			}
			if hint, ok := serve.RetryAfter(err); ok {
				secs := ceilSecs(hint)
				if secs < 1 {
					secs = 1
				}
				w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
			}
			http.Error(w, err.Error(), status)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{"mean": g.Mean, "std": g.Std(0)})
	}
	mux.HandleFunc("POST /predict", predict)
	mux.HandleFunc("POST /v1/models/{name}/predict", predict)
	mux.HandleFunc("GET /v1/models", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"models":[{"name":"default","network":"5-256-256-1"}]}`)
	})

	// A rolling reload respawns on the predecessor's exact port; the old
	// process may hold the socket for a beat after SIGTERM, so binding
	// retries briefly instead of failing.
	ln, err := listenRetry(listen, 3*time.Second)
	if err != nil {
		return fmt.Errorf("cluster replica: %w", err)
	}
	srv := &http.Server{Handler: mux}
	fmt.Printf("ADDR http://%s\n", ln.Addr())
	os.Stdout.Sync()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case <-sig:
	case err := <-errc:
		return fmt.Errorf("cluster replica: %w", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	srv.Shutdown(ctx)
	return coal.Close(ctx)
}

func listenRetry(addr string, within time.Duration) (net.Listener, error) {
	deadline := time.Now().Add(within)
	for {
		ln, err := net.Listen("tcp", addr)
		if err == nil {
			return ln, nil
		}
		if time.Now().After(deadline) {
			return nil, err
		}
		time.Sleep(40 * time.Millisecond)
	}
}

func ceilSecs(d time.Duration) int64 { return int64(math.Ceil(d.Seconds())) }

// --- replica process management ---------------------------------------------

type replicaProc struct {
	cmd  *exec.Cmd
	url  string // http://host:port
	addr string // host:port, reused on respawn
}

// spawnReplica re-execs this binary as one replica and waits for its ADDR
// handshake. addr "127.0.0.1:0" picks a free port; a concrete addr reuses it.
func spawnReplica(budget float64, addr string) (*replicaProc, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe,
		"-cluster-replica",
		"-cluster-budget", strconv.FormatFloat(budget, 'g', -1, 64),
		"-cluster-listen", addr,
	)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	lines := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if s, ok := strings.CutPrefix(sc.Text(), "ADDR "); ok {
				lines <- s
				break
			}
		}
		io.Copy(io.Discard, stdout)
		close(lines)
	}()
	select {
	case u, ok := <-lines:
		if !ok || u == "" {
			cmd.Process.Kill()
			cmd.Wait()
			return nil, fmt.Errorf("replica exited before ADDR handshake")
		}
		return &replicaProc{cmd: cmd, url: u, addr: strings.TrimPrefix(u, "http://")}, nil
	case <-time.After(15 * time.Second):
		cmd.Process.Kill()
		cmd.Wait()
		return nil, fmt.Errorf("replica did not report ADDR within 15s")
	}
}

// stop terminates the replica gracefully (SIGTERM, then SIGKILL after grace).
func (p *replicaProc) stop() {
	if p == nil || p.cmd.Process == nil {
		return
	}
	p.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() { p.cmd.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		p.cmd.Process.Kill()
		<-done
	}
}

// kill is the node-kill scenario's hard stop: SIGKILL, no drain.
func (p *replicaProc) kill() {
	p.cmd.Process.Kill()
	p.cmd.Wait()
}

// --- load generation ---------------------------------------------------------

// loadSample is one arrival's outcome: offset of its start into the run,
// latency, and whether the call succeeded.
type loadSample struct {
	offsetSec float64
	micros    float64
	ok        bool
}

// openLoop offers call(i) at a fixed rate regardless of completion times
// (open loop: arrivals are independent of service, so saturation shows up as
// shed load or queueing, not as a silently slowed client). Arrival i is due
// at start + i/rate on an absolute schedule: a late slot fires as soon as
// the pacer wakes and does not push later slots back, and no slot is
// skipped. Each arrival runs in its own goroutine. Slots keep coming until
// one falls at or after minDur with stopAfter closed (nil: stop at minDur).
// It returns every arrival's sample, failed calls included, and the wall
// time until the last one finished.
func openLoop(rate float64, minDur time.Duration, stopAfter <-chan struct{}, call func(i int64) bool) ([]loadSample, time.Duration) {
	interval := time.Duration(float64(time.Second) / rate)
	stopped := func() bool {
		if stopAfter == nil {
			return true
		}
		select {
		case <-stopAfter:
			return true
		default:
			return false
		}
	}
	var (
		mu      sync.Mutex
		samples []loadSample
		wg      sync.WaitGroup
	)
	start := time.Now()
	for i := int64(0); ; i++ {
		slot := time.Duration(i) * interval
		if wait := time.Until(start.Add(slot)); wait > 0 {
			time.Sleep(wait)
		}
		if slot >= minDur && stopped() {
			break
		}
		wg.Add(1)
		go func(i int64) {
			defer wg.Done()
			t0 := time.Now()
			ok := call(i)
			s := loadSample{t0.Sub(start).Seconds(), float64(time.Since(t0).Microseconds()), ok}
			mu.Lock()
			samples = append(samples, s)
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	return samples, time.Since(start)
}

// percentile returns the nearest-rank q-quantile of sorted: its ⌈q·n⌉-th
// smallest value. q·n is shrunk by a relative 1e-12 before the ceiling,
// because float error can leave an exact multiple just above its integer
// (0.07·100 evaluates to 7.000000000000001) and push the rank up by one.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	x := q * float64(len(sorted))
	i := int(math.Ceil(x-x*1e-12)) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// predictLoad offers one scenario's open loop against the router at baseURL,
// keying arrival i by keyFn(i).
func predictLoad(client *http.Client, baseURL string, offered float64, minDur time.Duration,
	stopAfter <-chan struct{}, keyFn func(i int64) string) ([]loadSample, time.Duration) {
	body := []byte(`{"input":[0.1,-0.2,0.3,0.05,-0.4]}`)
	return openLoop(offered, minDur, stopAfter, func(i int64) bool {
		return doPredict(client, baseURL, keyFn(i), body)
	})
}

func doPredict(client *http.Client, baseURL, key string, body []byte) bool {
	req, err := http.NewRequest(http.MethodPost, baseURL+"/predict", bytes.NewReader(body))
	if err != nil {
		return false
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Shard-Key", key)
	resp, err := client.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 64<<10))
	resp.Body.Close()
	return resp.StatusCode >= 200 && resp.StatusCode < 300
}

// summarize folds raw samples into a scenario row: every arrival counts as
// sent, failures are counted, and the percentiles cover answered requests.
func summarize(sc *clusterScenario, samples []loadSample, elapsed time.Duration) {
	var okLats []float64
	for _, s := range samples {
		sc.Sent++
		if s.ok {
			sc.OK++
			okLats = append(okLats, s.micros)
		} else {
			sc.Failed++
		}
	}
	sc.DurationSec = elapsed.Seconds()
	if sc.DurationSec > 0 {
		sc.QPS = float64(sc.OK) / sc.DurationSec
	}
	sort.Float64s(okLats)
	sc.P50Micros = percentile(okLats, 0.50)
	sc.P99Micros = percentile(okLats, 0.99)
	sc.P999Micros = percentile(okLats, 0.999)
}

// calibrateReplica measures one unthrottled replica's closed-loop capacity:
// the budget rate derives from it, so the sweep's offered load lands in a
// regime this box can actually generate and absorb.
func calibrateReplica(client *http.Client, url string) float64 {
	const workers = 8
	body := []byte(`{"input":[0.1,-0.2,0.3,0.05,-0.4]}`)
	run := func(d time.Duration) float64 {
		var n atomic.Int64
		var wg sync.WaitGroup
		start := time.Now()
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				key := fmt.Sprintf("cal-%d", w)
				for time.Since(start) < d {
					if doPredict(client, url, key, body) {
						n.Add(1)
					}
				}
			}(w)
		}
		wg.Wait()
		return float64(n.Load()) / time.Since(start).Seconds()
	}
	run(200 * time.Millisecond) // warmup
	return run(500 * time.Millisecond)
}

// --- orchestration -----------------------------------------------------------

// emitClusterBench runs the cluster scenarios and writes BENCH_cluster.json.
// maxReplicas bounds the sweep (4 is the full run; 2 is the CI smoke); cell
// is the steady-state measurement window per scale cell.
func emitClusterBench(dir string, maxReplicas int, cell time.Duration) error {
	if maxReplicas < 1 {
		return fmt.Errorf("cluster bench: need at least 1 replica")
	}
	client := &http.Client{
		Timeout:   5 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 256, IdleConnTimeout: 30 * time.Second},
	}

	log.Printf("cluster: calibrating single-replica capacity")
	cal, err := spawnReplica(0, "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("cluster bench: %w", err)
	}
	capacity := calibrateReplica(client, cal.url)
	cal.stop()
	if capacity <= 0 {
		return fmt.Errorf("cluster bench: calibration measured zero capacity")
	}
	// The budget is a tenth of raw capacity, clamped: low enough that N
	// budget-bound replicas plus the router and the load generator all fit
	// on this box's cores, high enough to be statistically stable.
	budget := math.Max(50, math.Min(capacity/10, 250))
	offered := 1.15 * float64(maxReplicas) * budget
	log.Printf("cluster: capacity %.0f rps/replica, budget %.0f rps, offered load %.0f rps",
		capacity, budget, offered)

	rep := clusterBenchReport{
		Network:            "5-256-256-1",
		ReplicasMax:        maxReplicas,
		CalibratedCapacity: capacity,
		BudgetPerReplica:   budget,
		OfferedLoad:        offered,
		CellSec:            cell.Seconds(),
		GOMAXPROCS:         runtime.GOMAXPROCS(0),
		Timestamp:          time.Now().UTC().Format(time.RFC3339),
	}
	tbl := &report.Table{
		Title: fmt.Sprintf("Sharded serving tier: open loop at %.0f rps offered, %.0f rps budget/replica", offered, budget),
		Headers: []string{"scenario", "replicas", "qps", "speedup", "p50 µs", "p99 µs", "p999 µs",
			"ok", "failed", "shed"},
	}

	var scaleQPS = map[int]float64{}
	for _, n := range clusterScales {
		if n > maxReplicas {
			log.Printf("cluster: skipping scale_%d (max %d replicas requested)", n, maxReplicas)
			continue
		}
		sc, err := runScaleScenario(client, n, budget, offered, cell)
		if err != nil {
			return fmt.Errorf("cluster bench: scale_%d: %w", n, err)
		}
		scaleQPS[n] = sc.QPS
		if base := scaleQPS[1]; base > 0 {
			sc.Speedup = sc.QPS / base
		}
		rep.Scenarios = append(rep.Scenarios, *sc)
		addClusterRow(tbl, sc)
	}
	if q1, q4 := scaleQPS[1], scaleQPS[4]; q1 > 0 && q4 > 0 {
		rep.Speedup1To4 = q4 / q1
	}

	if maxReplicas >= 4 {
		for _, s := range []struct {
			name string
			run  func(*http.Client, float64, time.Duration) (*clusterScenario, error)
		}{
			{"node_kill", runNodeKillScenario},
			{"rolling_reload", runRollingReloadScenario},
			{"hot_key", runHotKeyScenario},
		} {
			sc, err := s.run(client, budget, cell)
			if err != nil {
				return fmt.Errorf("cluster bench: %s: %w", s.name, err)
			}
			rep.Scenarios = append(rep.Scenarios, *sc)
			addClusterRow(tbl, sc)
		}
	} else {
		log.Printf("cluster: skipping node_kill/rolling_reload/hot_key (need 4 replicas, have %d)", maxReplicas)
	}

	tbl.Notes = append(tbl.Notes,
		"open loop: arrivals at the offered rate regardless of completions; failures are shed load, not slowdown",
		fmt.Sprintf("budget %.0f rps/replica (= min(capacity/10, 250)); offered load fixed at 1.15 x %d x budget", budget, maxReplicas),
	)
	text, err := tbl.Render()
	if err != nil {
		return err
	}
	fmt.Println(text)
	js, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "BENCH_cluster.json"), append(js, '\n'), 0o644)
}

func addClusterRow(tbl *report.Table, sc *clusterScenario) {
	speedup := ""
	if sc.Speedup > 0 {
		speedup = fmt.Sprintf("%.2fx", sc.Speedup)
	}
	tbl.AddRow(sc.Name, fmt.Sprint(sc.Replicas),
		fmt.Sprintf("%.0f", sc.QPS), speedup,
		fmt.Sprintf("%.0f", sc.P50Micros),
		fmt.Sprintf("%.0f", sc.P99Micros),
		fmt.Sprintf("%.0f", sc.P999Micros),
		fmt.Sprint(sc.OK), fmt.Sprint(sc.Failed), fmt.Sprintf("%.0f", sc.Shed))
}

// clusterFleet spawns n budget-bound replicas and a router over them,
// served on a real loopback port.
type clusterFleet struct {
	replicas []*replicaProc
	router   *cluster.Router
	metrics  *cluster.Metrics
	srv      *http.Server
	url      string
}

func startFleet(n int, budget float64) (*clusterFleet, error) {
	f := &clusterFleet{}
	urls := make([]string, 0, n)
	for i := 0; i < n; i++ {
		p, err := spawnReplica(budget, "127.0.0.1:0")
		if err != nil {
			f.close()
			return nil, err
		}
		f.replicas = append(f.replicas, p)
		urls = append(urls, p.url)
	}
	f.metrics = cluster.NewMetrics(obs.NewRegistry())
	rt, err := cluster.NewRouter(cluster.RouterConfig{
		Replicas:      urls,
		ProbeInterval: 100 * time.Millisecond,
		ProbeTimeout:  500 * time.Millisecond,
		MaxSpill:      1,
		Metrics:       f.metrics,
	})
	if err != nil {
		f.close()
		return nil, err
	}
	f.router = rt
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		f.close()
		return nil, err
	}
	f.srv = &http.Server{Handler: rt}
	go f.srv.Serve(ln)
	f.url = "http://" + ln.Addr().String()
	return f, nil
}

func (f *clusterFleet) close() {
	if f.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		f.srv.Shutdown(ctx)
		cancel()
	}
	if f.router != nil {
		f.router.Close()
	}
	for _, p := range f.replicas {
		p.stop()
	}
}

func uniformKeys(i int64) string { return "dev-" + strconv.FormatInt(i%4096, 10) }

func runScaleScenario(client *http.Client, n int, budget, offered float64, cell time.Duration) (*clusterScenario, error) {
	log.Printf("cluster: scale_%d (%d replicas, offered %.0f rps)", n, n, offered)
	f, err := startFleet(n, budget)
	if err != nil {
		return nil, err
	}
	defer f.close()
	predictLoad(client, f.url, offered, cell/4+50*time.Millisecond, nil, uniformKeys) // warmup
	samples, elapsed := predictLoad(client, f.url, offered, cell, nil, uniformKeys)
	sc := &clusterScenario{Name: fmt.Sprintf("scale_%d", n), Replicas: n, OfferedLoad: offered,
		Shed: f.metrics.Shed()}
	summarize(sc, samples, elapsed)
	return sc, nil
}

// runNodeKillScenario SIGKILLs one replica mid-load. The offered load is
// sized for the survivors (0.6 x 4 x budget < 3 x budget), so the acceptance
// property is clean: after the health-probe window the router must drop
// nothing — and during the window the transport-error retry path should
// already be healing.
func runNodeKillScenario(client *http.Client, budget float64, cell time.Duration) (*clusterScenario, error) {
	offered := 0.6 * 4 * budget
	total := 3 * cell
	log.Printf("cluster: node_kill (4 replicas, offered %.0f rps, kill at %v)", offered, cell)
	f, err := startFleet(4, budget)
	if err != nil {
		return nil, err
	}
	defer f.close()

	victim := f.replicas[3]
	var killAt atomic.Int64 // microseconds into the run
	start := time.Now()
	go func() {
		time.Sleep(cell)
		killAt.Store(time.Since(start).Microseconds())
		victim.kill()
	}()
	samples, elapsed := predictLoad(client, f.url, offered, total, nil, uniformKeys)

	// The probe window: FailAfter consecutive probes (100ms apart) each up
	// to the 500ms probe timeout, plus slack for the ring swap.
	const probeWindow = 2*0.1 + 0.5 + 0.2
	killSec := float64(killAt.Load()) / 1e6
	sc := &clusterScenario{Name: "node_kill", Replicas: 4, OfferedLoad: offered,
		KillAtSec: killSec, ProbeWindowSec: probeWindow,
		Spills: spillTotal(f), Retries: retryTotal(f), Shed: f.metrics.Shed()}
	for _, s := range samples {
		if !s.ok {
			if s.offsetSec > killSec+probeWindow {
				sc.FailedAfterWindow++
			} else {
				sc.FailedBeforeWindow++
			}
		}
	}
	summarize(sc, samples, elapsed)
	return sc, nil
}

// runRollingReloadScenario drains, restarts, and rejoins every replica in
// sequence while load runs. Zero non-2xx is the acceptance property: the
// drain removes the shard before its process dies, and the respawned process
// re-enters only after the readmit warmup.
func runRollingReloadScenario(client *http.Client, budget float64, cell time.Duration) (*clusterScenario, error) {
	offered := 0.6 * 4 * budget
	log.Printf("cluster: rolling_reload (4 replicas, offered %.0f rps)", offered)
	f, err := startFleet(4, budget)
	if err != nil {
		return nil, err
	}
	defer f.close()

	reloadDone := make(chan struct{})
	var reloadErr error
	go func() {
		defer close(reloadDone)
		for i := range f.replicas {
			if reloadErr = rollOne(f, i, budget); reloadErr != nil {
				return
			}
		}
	}()
	samples, elapsed := predictLoad(client, f.url, offered, cell, reloadDone, uniformKeys)
	if reloadErr != nil {
		return nil, reloadErr
	}
	sc := &clusterScenario{Name: "rolling_reload", Replicas: 4, OfferedLoad: offered,
		Spills: spillTotal(f), Retries: retryTotal(f), Shed: f.metrics.Shed()}
	summarize(sc, samples, elapsed)
	return sc, nil
}

// rollOne reloads replica i: drain (router-side, waits in-flight), SIGTERM,
// respawn on the same port, wait for readiness, rejoin, wait for the ring.
func rollOne(f *clusterFleet, i int, budget float64) error {
	p := f.replicas[i]
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := f.router.Drain(ctx, p.url); err != nil {
		return fmt.Errorf("drain %s: %w", p.url, err)
	}
	p.stop()
	np, err := spawnReplica(budget, p.addr)
	if err != nil {
		return fmt.Errorf("respawn %s: %w", p.addr, err)
	}
	f.replicas[i] = np
	if err := f.router.Rejoin(np.url); err != nil {
		return fmt.Errorf("rejoin %s: %w", np.url, err)
	}
	// Wait until the probe loop has readmitted it (warmup: 2 consecutive
	// probes at 100ms), so the next roll never leaves the ring at 2 shards.
	deadline := time.Now().Add(10 * time.Second)
	for {
		for _, n := range f.router.Ring().Nodes() {
			if n == np.url {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("replica %s not readmitted within 10s", np.url)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// runHotKeyScenario offers Zipf(1.5) traffic: ~38% of requests carry the
// single hottest key, overdriving one shard's budget. The router's
// saturation spillover moves the overflow to the ring successor instead of
// shedding it, so the property to watch is spills > 0 with qps close to
// offered.
func runHotKeyScenario(client *http.Client, budget float64, cell time.Duration) (*clusterScenario, error) {
	offered := 0.8 * 4 * budget
	log.Printf("cluster: hot_key (4 replicas, offered %.0f rps, zipf s=1.5)", offered)
	f, err := startFleet(4, budget)
	if err != nil {
		return nil, err
	}
	defer f.close()
	z, err := cluster.NewZipf(20260808, 1.5, 1, 1<<16)
	if err != nil {
		return nil, err
	}
	var zmu sync.Mutex
	keyFn := func(i int64) string {
		zmu.Lock()
		defer zmu.Unlock()
		return z.NextKey()
	}
	predictLoad(client, f.url, offered, cell/4+50*time.Millisecond, nil, keyFn)
	samples, elapsed := predictLoad(client, f.url, offered, cell, nil, keyFn)
	sc := &clusterScenario{Name: "hot_key", Replicas: 4, OfferedLoad: offered,
		Spills: spillTotal(f), Retries: retryTotal(f), Shed: f.metrics.Shed()}
	summarize(sc, samples, elapsed)
	return sc, nil
}

func spillTotal(f *clusterFleet) float64 {
	var total float64
	for _, p := range f.replicas {
		total += f.metrics.Spills(p.url)
	}
	return total
}

func retryTotal(f *clusterFleet) float64 {
	var total float64
	for _, p := range f.replicas {
		total += f.metrics.Retries(p.url)
	}
	return total
}

package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// serverGOMAXPROCS runs the server child's Go code on one core at a time,
// so that its batch fan-out does not fight the load generator for the
// cores. benchGOMAXPROCS is the benchmark process's own, on every workload:
// it runs one closed-loop goroutine. In a timed window the two processes
// are moved together from one vCPU to the next, slice by slice (see timed).
const (
	serverGOMAXPROCS = 1
	benchGOMAXPROCS  = 1
)

// readyPoll is the /readyz polling interval. It is far below the set-up
// time being measured, so polling granularity does not show in setup_s.
const readyPoll = 100 * time.Microsecond

// server is one running examples/server child.
type server struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	done   chan error // receives the child's exit status once
}

// freePort asks the kernel for an unused localhost port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// newClient returns a client that keeps one connection alive.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConns:        1,
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}}
}

// startServer starts the server on modelPath and waits until /readyz
// answers 200. The returned duration runs from process start to that
// answer: binary load, model decode, registry build (compile and warm-up
// included) and listener start.
func startServer(bin, modelPath, logPath string) (*server, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, fmt.Errorf("pick port: %w", err)
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	defer logf.Close()
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(bin, "-addr", addr, "-model", modelPath, "-watch-interval", "0")
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(serverGOMAXPROCS))
	cmd.Stdout = logf
	cmd.Stderr = logf
	// The child dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	s := &server{
		cmd:    cmd,
		base:   "http://" + addr,
		client: newClient(),
		done:   make(chan error, 1),
	}
	// Pdeathsig fires when the thread that forked exits; keep it alive.
	runtime.LockOSThread()
	t0 := time.Now()
	err = cmd.Start()
	runtime.UnlockOSThread()
	if err != nil {
		return nil, 0, fmt.Errorf("start server: %w", err)
	}
	go func() { s.done <- cmd.Wait() }()

	probe := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: time.Second}
	deadline := t0.Add(60 * time.Second)
	for {
		resp, err := probe.Get(s.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(t0), nil
			}
		}
		select {
		case err := <-s.done:
			s.done <- err
			return nil, 0, fmt.Errorf("server exited before ready (%v); log in %s", err, logPath)
		default:
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, 0, fmt.Errorf("server not ready after 60s; log in %s", logPath)
		}
		time.Sleep(readyPoll)
	}
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// stop asks the server to drain and exit, kills it if it has not exited
// after 10 s, and waits for it either way.
func (s *server) stop() error {
	s.client.CloseIdleConnections()
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-s.done:
		return exitErr(err)
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
		return errors.New("server did not drain within 10s; killed")
	}
}

// exitErr accepts the exit a SIGTERM drain produces.
func exitErr(err error) error {
	var ee *exec.ExitError
	if errors.As(err, &ee) && ee.ProcessState.Exited() && ee.ExitCode() == 0 {
		return nil
	}
	return err
}

// post sends body to path and returns the response body. A non-200 status
// is an error: 429/503 refusals count as failed operations.
func (s *server) post(ctx context.Context, path string, body []byte, dst *bytes.Buffer) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	dst.Reset()
	if _, err := dst.ReadFrom(resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(dst.String()))
	}
	return nil
}

// scrape reads the server's state the per-layer metrics difference across
// a window: every sample of /metrics plus the runtime.MemStats footer of
// /debug/pprof/heap?debug=1.
type scrape struct {
	series map[string]float64 // `name{labels}` → value
	heap   map[string]string  // MemStats field → raw value
	cpu    time.Duration
}

func (s *server) scrape() (scrape, error) {
	sc := scrape{series: map[string]float64{}, heap: map[string]string{}}
	var err error
	if sc.cpu, err = procCPU(s.pid()); err != nil {
		return sc, err
	}
	body, err := s.get("/metrics")
	if err != nil {
		return sc, err
	}
	sc.series = parseExposition(body)
	body, err = s.get("/debug/pprof/heap?debug=1")
	if err != nil {
		return sc, err
	}
	sc.heap = parseMemStats(body)
	return sc, nil
}

func (s *server) get(path string) ([]byte, error) {
	resp, err := s.client.Get(s.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return b, nil
}

// parseExposition reads Prometheus text exposition into `name{labels}` →
// value, skipping comments.
func parseExposition(b []byte) map[string]float64 {
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out
}

// parseMemStats reads the "# Field = value" footer of a debug=1 heap
// profile.
func parseMemStats(b []byte) map[string]string {
	out := map[string]string{}
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for sc.Scan() {
		line, ok := strings.CutPrefix(sc.Text(), "# ")
		if !ok {
			continue
		}
		if k, v, ok := strings.Cut(line, " = "); ok {
			out[k] = v
		}
	}
	return out
}

// heapUint reads an integer MemStats field.
func (sc scrape) heapUint(field string) float64 {
	v, _ := strconv.ParseFloat(sc.heap[field], 64)
	return v
}

// pauseSince sums the GC pauses that happened after before was taken, from
// the PauseNs ring (the last 256 collections).
func (sc scrape) pauseSince(before scrape) time.Duration {
	n := int(sc.heapUint("NumGC") - before.heapUint("NumGC"))
	ring := strings.Fields(strings.Trim(sc.heap["PauseNs"], "[]"))
	if n > len(ring) {
		n = len(ring)
	}
	// PauseNs is indexed by (NumGC+255)%256 for the most recent collection.
	total := int(sc.heapUint("NumGC"))
	var d time.Duration
	for k := 0; k < n; k++ {
		idx := ((total-1-k)%256 + 256) % 256
		if idx < len(ring) {
			ns, _ := strconv.ParseInt(ring[idx], 10, 64)
			d += time.Duration(ns)
		}
	}
	return d
}

// writeModel stores a serialized model for the server to load.
func writeModel(dir, name string, b []byte) (string, error) {
	p := filepath.Join(dir, name)
	if err := os.WriteFile(p, b, 0o644); err != nil {
		return "", fmt.Errorf("write model: %w", err)
	}
	return p, nil
}

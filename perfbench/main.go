// Command perfbench is the repository's benchmark. It runs one workload for
// a fixed time, checks every output it was served, and prints one JSON
// result line: the end-to-end metrics of an untraced run, or with -trace 1
// the per-layer metrics of a traced run. It drives the public functions of
// internal/core, internal/compile and internal/session in-process, and the
// examples/server binary over HTTP.
//
// Run it through run.sh from the repository root, which builds both
// binaries first:
//
//	bash perfbench/run.sh --workload upload-batch --seed 7 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// config is one invocation.
type config struct {
	workload  string
	seed      int64
	seconds   int
	trace     bool
	serverBin string // examples/server binary (server workloads)
	work      string // scratch directory for run files
	root      string // repository root, for the source digest
	commit    string
}

func (c config) window() time.Duration { return time.Duration(c.seconds) * time.Second }

// outcome is what a workload run produced.
type outcome struct {
	attempted, failed int
	checkErr          error
	// metrics holds an untraced run's end-to-end metrics; layers a traced
	// run's per-layer metrics.
	metrics map[string]float64
	layers  *layerVals
	// report carries the detail behind the metrics (sample counts, the
	// spread of repeated set-ups, workload parameters) for the report line.
	report map[string]any
}

// workload is one traffic mix. BENCHMARK.json says why it was chosen, and
// workloads.json what it loads and bypasses.
type workload struct {
	name string
	// layers lists the per-layer metrics the workload's traced run measures;
	// the rest read 0.
	layers []string
	run    func(cfg config) (*outcome, error)
}

var workloads = []*workload{deviceB1, uploadBatch, fleetIngest}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload name")
	fs.Int64Var(&cfg.seed, "seed", 1, "input seed")
	fs.IntVar(&cfg.seconds, "seconds", 10, "timed window length in seconds")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced per-layer run")
	fs.StringVar(&cfg.serverBin, "server", "", "examples/server binary")
	fs.StringVar(&cfg.work, "work", "", "directory for run files")
	fs.StringVar(&cfg.root, "root", ".", "repository root")
	fs.StringVar(&cfg.commit, "commit", "unknown", "commit being measured")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w := findWorkload(cfg.workload)
	switch {
	case w == nil:
		return fmt.Errorf("unknown workload %q", cfg.workload)
	case cfg.seconds < 1:
		return fmt.Errorf("seconds %d, want >= 1", cfg.seconds)
	case trace != 0 && trace != 1:
		return fmt.Errorf("trace %d, want 0 or 1", trace)
	case cfg.work == "":
		return errors.New("-work is required")
	}
	cfg.trace = trace == 1
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return err
	}
	runtime.GOMAXPROCS(benchGOMAXPROCS)
	debug.SetTraceback("all")

	out, err := w.run(cfg)
	if err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	catalog, vals := endToEnd, out.metrics
	if cfg.trace {
		catalog = perLayer
		if vals, err = out.layers.finish(w); err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
	}
	metrics, err := fill(catalog, vals)
	if err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	procs := map[string]int{"perfbench": benchGOMAXPROCS}
	if w == uploadBatch {
		procs["apds-server"] = serverGOMAXPROCS
	}
	report := map[string]any{
		"workload":    w.name,
		"seed":        cfg.seed,
		"seconds":     cfg.seconds,
		"trace":       trace,
		"environment": readEnvironment(cfg.root, cfg.commit, procs),
		"detail":      out.report,
	}
	if out.checkErr != nil {
		report["check_error"] = out.checkErr.Error()
	}
	if err := printJSON(map[string]any{"report": report}); err != nil {
		return err
	}
	return printJSON(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{out.checkErr == nil && out.failed == 0, out.attempted, out.failed, metrics})
}

func printJSON(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(b))
	return err
}

// layerVals collects a traced run's per-layer metrics. Every catalog
// metric starts at 0; set records which ones the run measured so that a
// workload that forgets one of its layers fails instead of reporting 0.
type layerVals struct {
	vals map[string]float64
	set  map[string]bool
}

func newLayerVals() *layerVals {
	lv := &layerVals{vals: map[string]float64{}, set: map[string]bool{}}
	for _, m := range perLayer {
		lv.vals[m.name] = 0
	}
	return lv
}

func (lv *layerVals) put(name string, v float64) {
	if _, ok := lv.vals[name]; !ok {
		panic("perfbench: per-layer metric not in catalog: " + name)
	}
	lv.vals[name] = v
	lv.set[name] = true
}

// finish checks that every metric the workload names was measured.
func (lv *layerVals) finish(w *workload) (map[string]float64, error) {
	var missing []string
	for _, name := range w.layers {
		if !lv.set[name] {
			missing = append(missing, name)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return nil, fmt.Errorf("traced run did not measure %v", missing)
	}
	return lv.vals, nil
}

// Command apds-bench regenerates the paper's evaluation artifacts: Tables
// I–IV (model quality) and Figures 1–9 (distribution evidence, inference
// time/energy, energy-vs-NLL tradeoffs). Results print to stdout and are
// also written under -results as .txt and .csv files.
//
// Usage:
//
//	apds-bench -all                      # everything (trains models on first run)
//	apds-bench -table 1                  # one table
//	apds-bench -fig 2                    # one figure
//	apds-bench -scale quick -all         # fast smoke run
//	apds-bench -registry                 # registry serving under continuous hot-swap
//	apds-bench -sessions                 # resident session fleet: 1M sessions, snapshot/restore, churn
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/apdeepsense/apdeepsense/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("apds-bench: ")
	if err := run(os.Args[1:]); err != nil {
		log.Fatal(err)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("apds-bench", flag.ContinueOnError)
	scaleName := fs.String("scale", "default", "experiment scale: quick, default, or paper")
	modelDir := fs.String("models", "models", "directory of trained model files")
	resultDir := fs.String("results", "results", "directory for result artifacts")
	tableN := fs.Int("table", 0, "regenerate one table (1-4)")
	figN := fs.Int("fig", 0, "regenerate one figure (1-9)")
	all := fs.Bool("all", false, "regenerate every table and figure")
	ablations := fs.Bool("ablations", false, "also run the ablation studies (PWL pieces, softmax link, variance bias)")
	verify := fs.Bool("verify", false, "check the paper's qualitative claims against measured results")
	registryBench := fs.Bool("registry", false, "benchmark registry serving under continuous hot-swap/reload/shadow (writes BENCH_registry.json)")
	seqBench := fs.Bool("seq", false, "benchmark the conv/RNN/GRU/LSTM sequence moment paths and the exact activation backend on dense rectifier nets (writes BENCH_seq.json)")
	clusterBench := fs.Bool("cluster", false, "benchmark the sharded multi-replica serving tier under open-loop load (writes BENCH_cluster.json)")
	sessionsBench := fs.Bool("sessions", false, "benchmark the resident session fleet: create/ingest/window throughput, snapshot/restore, idle churn (writes BENCH_stream.json)")
	sessionCount := fs.Int("session-count", 1_000_000, "with -sessions: resident sessions to hold")
	sessionStream := fs.Int("session-stream", 200_000, "with -sessions: devices streamed to window completion")
	clusterReplicas := fs.Int("cluster-replicas", 4, "with -cluster: replica-count ceiling for the scale sweep (failure scenarios need 4)")
	clusterCell := fs.Duration("cluster-duration", 2*time.Second, "with -cluster: steady-state measurement window per scenario cell")
	clusterReplica := fs.Bool("cluster-replica", false, "internal: run as one cluster bench replica (spawned by -cluster)")
	clusterBudget := fs.Float64("cluster-budget", 0, "internal: admission budget in requests/second for -cluster-replica (0 = unlimited)")
	clusterListen := fs.String("cluster-listen", "127.0.0.1:0", "internal: listen address for -cluster-replica")
	registryCell := fs.Duration("registry-duration", 2*time.Second, "with -registry: measured wall time per mode cell")
	verbose := fs.Bool("v", false, "log progress")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *clusterReplica {
		// Child mode: this process IS one replica of the cluster bench.
		return runClusterReplica(*clusterBudget, *clusterListen)
	}
	if !*all && *tableN == 0 && *figN == 0 && !*ablations && !*verify && !*registryBench && !*seqBench && !*clusterBench && !*sessionsBench {
		return fmt.Errorf("nothing to do: pass -all, -table N, -fig N, -ablations, -verify, -registry, -seq, -cluster, or -sessions")
	}

	scale, err := scaleByName(*scaleName)
	if err != nil {
		return err
	}
	logf := func(string, ...any) {}
	if *verbose {
		logf = func(format string, a ...any) {
			if !strings.HasPrefix(format, "epoch") {
				log.Printf(format, a...)
			}
		}
	}
	runner, err := experiments.NewRunner(scale,
		experiments.WithModelDir(*modelDir),
		experiments.WithLogf(logf),
	)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(*resultDir, 0o755); err != nil {
		return fmt.Errorf("results dir: %w", err)
	}

	var tables []int
	var figs []int
	switch {
	case *all:
		tables = []int{1, 2, 3, 4}
		figs = []int{1, 2, 3, 4, 5, 6, 7, 8, 9}
	default:
		if *tableN != 0 {
			tables = []int{*tableN}
		}
		if *figN != 0 {
			figs = []int{*figN}
		}
	}

	start := time.Now()
	for _, n := range tables {
		if err := emitTable(runner, n, *resultDir); err != nil {
			return err
		}
	}
	for _, n := range figs {
		if err := emitFigure(runner, n, *resultDir); err != nil {
			return err
		}
	}
	if *ablations {
		if err := emitAblations(runner, *resultDir); err != nil {
			return err
		}
	}
	if *verify {
		if err := emitVerify(runner, *resultDir); err != nil {
			return err
		}
	}
	if *registryBench {
		if err := emitRegistryBench(*resultDir, *registryCell); err != nil {
			return err
		}
	}
	if *seqBench {
		if err := emitSeqBench(*resultDir); err != nil {
			return err
		}
	}
	if *clusterBench {
		if err := emitClusterBench(*resultDir, *clusterReplicas, *clusterCell); err != nil {
			return err
		}
	}
	if *sessionsBench {
		if err := emitSessionsBench(*resultDir, *sessionCount, *sessionStream); err != nil {
			return err
		}
	}
	log.Printf("done in %.1fs (artifacts in %s)", time.Since(start).Seconds(), *resultDir)
	return nil
}

// emitVerify checks the paper's qualitative claims on every task.
func emitVerify(runner *experiments.Runner, dir string) error {
	var all []experiments.ShapeCheck
	for _, task := range experiments.TaskNames {
		checks, err := runner.VerifyShapes(task)
		if err != nil {
			return fmt.Errorf("verify %s: %w", task, err)
		}
		all = append(all, checks...)
	}
	tbl, err := experiments.ShapeReport(all)
	if err != nil {
		return err
	}
	text, err := tbl.Render()
	if err != nil {
		return err
	}
	fmt.Println(text)
	return os.WriteFile(filepath.Join(dir, "shape-checks.txt"), []byte(text), 0o644)
}

// emitAblations runs the three ablation studies of DESIGN.md §5.
func emitAblations(runner *experiments.Runner, dir string) error {
	pieces, err := runner.AblationPieces("GasSen", nil)
	if err != nil {
		return fmt.Errorf("ablation pieces: %w", err)
	}
	link, err := runner.AblationSoftmaxLink(nil)
	if err != nil {
		return fmt.Errorf("ablation softmax link: %w", err)
	}
	bias, err := runner.AblationVarianceBias("NYCommute", 20, 2000)
	if err != nil {
		return fmt.Errorf("ablation variance bias: %w", err)
	}
	sens, err := runner.AblationDeviceSensitivity("NYCommute", nil)
	if err != nil {
		return fmt.Errorf("ablation device sensitivity: %w", err)
	}
	var b strings.Builder
	for _, tbl := range []interface {
		Render() (string, error)
	}{pieces, link, bias, sens} {
		out, err := tbl.Render()
		if err != nil {
			return err
		}
		b.WriteString(out)
		b.WriteByte('\n')
	}
	text := b.String()
	fmt.Println(text)
	return os.WriteFile(filepath.Join(dir, "ablations.txt"), []byte(text), 0o644)
}

func emitTable(runner *experiments.Runner, n int, dir string) error {
	tbl, err := runner.Table(n)
	if err != nil {
		return fmt.Errorf("table %d: %w", n, err)
	}
	text, err := tbl.Render()
	if err != nil {
		return err
	}
	fmt.Println(text)
	if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("table%d.txt", n)), []byte(text), 0o644); err != nil {
		return err
	}
	csv, err := tbl.CSV()
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("table%d.csv", n)), []byte(csv), 0o644)
}

func emitFigure(runner *experiments.Runner, n int, dir string) error {
	fig, err := runner.Figure(n)
	if err != nil {
		return fmt.Errorf("figure %d: %w", n, err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", fig.Title)
	if fig.Text != "" {
		b.WriteString(fig.Text)
		b.WriteByte('\n')
	}
	for _, chart := range fig.Charts {
		out, err := chart.Render(50)
		if err != nil {
			return err
		}
		b.WriteString(out)
		b.WriteByte('\n')
	}
	if fig.Scatter != nil {
		out, err := fig.Scatter.Render(64, 16)
		if err != nil {
			return err
		}
		b.WriteString(out)
		b.WriteByte('\n')
	}
	if fig.Data != nil {
		out, err := fig.Data.Render()
		if err != nil {
			return err
		}
		b.WriteString(out)
	}
	text := b.String()
	fmt.Println(text)
	if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("fig%d.txt", n)), []byte(text), 0o644); err != nil {
		return err
	}
	if fig.Data != nil {
		csv, err := fig.Data.CSV()
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dir, fmt.Sprintf("fig%d.csv", n)), []byte(csv), 0o644)
	}
	return nil
}

func scaleByName(name string) (experiments.Scale, error) {
	switch name {
	case "quick":
		return experiments.QuickScale, nil
	case "default":
		return experiments.DefaultScale, nil
	case "paper":
		return experiments.PaperScale, nil
	default:
		return experiments.Scale{}, fmt.Errorf("unknown scale %q (quick, default, paper)", name)
	}
}

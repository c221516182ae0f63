package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/apdeepsense/apdeepsense/internal/core"
	"github.com/apdeepsense/apdeepsense/internal/edison"
	"github.com/apdeepsense/apdeepsense/internal/nn"
	"github.com/apdeepsense/apdeepsense/internal/qprop"
	"github.com/apdeepsense/apdeepsense/internal/quantize"
	"github.com/apdeepsense/apdeepsense/internal/report"
)

// quantBenchBatches is the sweep recorded by -quant: the latency point (1),
// the coalescer's typical partial flush (8), and the full flush (64).
var quantBenchBatches = []int{1, 8, 64}

// quantBenchEntry is one batch-size row of BENCH_quant.json. The quantized
// path is an approximation — its accuracy is held to the oracle's a-priori
// quantization error budget by the proptest gate, so this row is purely a
// performance comparison.
type quantBenchEntry struct {
	Batch                  int     `json:"batch"`
	FloatNsPerSample       float64 `json:"float_ns_per_sample"`
	QuantizedNsPerSample   float64 `json:"quantized_ns_per_sample"`
	Speedup                float64 `json:"speedup"` // float / quantized
	QuantizedSamplesPerSec float64 `json:"quantized_samples_per_sec"`
}

// quantSizeStats compares model footprint. Ratios are quantized/float, so
// smaller is better and the benchdiff gate guards them in the right
// direction. File bytes compare the serialized formats (8 B/weight float64
// vs 1 B/weight int8 code + per-column scales); resident bytes compare what
// propagation actually touches per weight (float: W plus the W² panel, 16 B;
// quantized: the pair-interleaved int16 code panel, 4 B).
type quantSizeStats struct {
	FloatFileBytes     int64   `json:"float_file_bytes"`
	QuantFileBytes     int64   `json:"quantized_file_bytes"`
	FileBytesRatio     float64 `json:"file_bytes_ratio"`
	FloatResidentBytes int64   `json:"float_resident_bytes"`
	QuantResidentBytes int64   `json:"quantized_resident_bytes"`
	ResidentBytesRatio float64 `json:"resident_bytes_ratio"`
}

// quantEdisonStats projects one inference onto the Edison cost model: the
// float path pays dense FLOPs at the device's streaming rate, the quantized
// path pays int16 MACs at the integer SIMD rate (see edison.Device).
type quantEdisonStats struct {
	FloatMillis      float64 `json:"float_millis"`
	QuantizedMillis  float64 `json:"quantized_millis"`
	EdisonSpeedup    float64 `json:"edison_speedup"`
	FloatMillijoules float64 `json:"float_millijoules"`
	QuantMillijoules float64 `json:"quantized_millijoules"`
}

type quantBenchReport struct {
	Network    string            `json:"network"`
	KeepProb   float64           `json:"keep_prob"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	Timestamp  string            `json:"timestamp"`
	Entries    []quantBenchEntry `json:"entries"`
	Size       quantSizeStats    `json:"size"`
	Edison     quantEdisonStats  `json:"edison"`
}

// emitQuantBench measures the int8 fixed-point propagator against the float
// engine on the reference network at batch 1/8/64,
// plus the model-size and Edison-projection comparisons. Results print as a
// table and land in BENCH_quant.json under dir.
func emitQuantBench(dir string) error {
	rep := quantBenchReport{
		Network:    "5-256-256-1",
		KeepProb:   0.9,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
	}
	net, err := nn.New(nn.Config{
		InputDim: 5, Hidden: []int{256, 256}, OutputDim: 1,
		Activation: nn.ActReLU, OutputActivation: nn.ActIdentity,
		KeepProb: rep.KeepProb, Seed: 1,
	})
	if err != nil {
		return fmt.Errorf("quant bench: %w", err)
	}
	prop, err := core.NewPropagator(net, core.Options{}, core.WithWorkers(1))
	if err != nil {
		return fmt.Errorf("quant bench: %w", err)
	}
	qp, _, err := qprop.Build(net, core.Options{}, qprop.WithWorkers(1))
	if err != nil {
		return fmt.Errorf("quant bench quantize: %w", err)
	}

	tbl := &report.Table{
		Title:   "Quantized vs float moment propagation (5-256-256-1, single core)",
		Headers: []string{"batch", "float µs/sample", "quantized µs/sample", "speedup", "quantized samples/s"},
	}
	rng := rand.New(rand.NewSource(7))
	for _, b := range quantBenchBatches {
		in := core.NewGaussianBatch(b, net.InputDim())
		for i := range in.Mean.Data {
			in.Mean.Data[i] = rng.NormFloat64()
			in.Var.Data[i] = rng.Float64()
		}
		float := timePerBatch(func() error {
			_, err := prop.PropagateBatchFrom(in)
			return err
		})
		prop.SetQuantized(qp)
		quantized := timePerBatch(func() error {
			_, err := prop.PropagateBatchFrom(in) // quantized takes dispatch priority
			return err
		})
		prop.SetQuantized(nil)
		e := quantBenchEntry{
			Batch:                  b,
			FloatNsPerSample:       float / float64(b),
			QuantizedNsPerSample:   quantized / float64(b),
			Speedup:                float / quantized,
			QuantizedSamplesPerSec: float64(b) * 1e9 / quantized,
		}
		rep.Entries = append(rep.Entries, e)
		tbl.AddRow(fmt.Sprint(b),
			fmt.Sprintf("%.1f", e.FloatNsPerSample/1e3),
			fmt.Sprintf("%.1f", e.QuantizedNsPerSample/1e3),
			fmt.Sprintf("%.2fx", e.Speedup),
			fmt.Sprintf("%.0f", e.QuantizedSamplesPerSec),
		)
	}

	rep.Size = quantSizeStats{
		FloatFileBytes:     quantize.Float64SizeBytes(net),
		QuantFileBytes:     qp.Model().SizeBytes(),
		FloatResidentBytes: 16 * net.Params(), // W + W² panels, 8 B each
		QuantResidentBytes: qp.ResidentBytes(),
	}
	rep.Size.FileBytesRatio = float64(rep.Size.QuantFileBytes) / float64(rep.Size.FloatFileBytes)
	rep.Size.ResidentBytesRatio = float64(rep.Size.QuantResidentBytes) / float64(rep.Size.FloatResidentBytes)

	dev := edison.NewEdison()
	fCost, qCost := prop.Cost(), qp.Cost()
	rep.Edison = quantEdisonStats{
		FloatMillis:      dev.TimeMillis(fCost),
		QuantizedMillis:  dev.TimeMillis(qCost),
		FloatMillijoules: dev.EnergyMillijoules(fCost),
		QuantMillijoules: dev.EnergyMillijoules(qCost),
	}
	if rep.Edison.QuantizedMillis > 0 {
		rep.Edison.EdisonSpeedup = rep.Edison.FloatMillis / rep.Edison.QuantizedMillis
	}

	tbl.Notes = append(tbl.Notes,
		"float = the float engine (PropagateBatchFrom); quantized = int8/int16 fixed-point path (accuracy held to the oracle quantization budget by proptest)",
		fmt.Sprintf("model bytes: file %d -> %d (%.2fx of float), resident %d -> %d (%.2fx of float)",
			rep.Size.FloatFileBytes, rep.Size.QuantFileBytes, rep.Size.FileBytesRatio,
			rep.Size.FloatResidentBytes, rep.Size.QuantResidentBytes, rep.Size.ResidentBytesRatio),
		fmt.Sprintf("edison projection: %.2f ms float vs %.2f ms quantized per inference (%.2fx)",
			rep.Edison.FloatMillis, rep.Edison.QuantizedMillis, rep.Edison.EdisonSpeedup))

	text, err := tbl.Render()
	if err != nil {
		return err
	}
	fmt.Println(text)
	js, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "BENCH_quant.json"), append(js, '\n'), 0o644)
}

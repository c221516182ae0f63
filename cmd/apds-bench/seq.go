package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/apdeepsense/apdeepsense/internal/conv"
	"github.com/apdeepsense/apdeepsense/internal/core"
	"github.com/apdeepsense/apdeepsense/internal/nn"
	"github.com/apdeepsense/apdeepsense/internal/report"
	"github.com/apdeepsense/apdeepsense/internal/rnn"
	"github.com/apdeepsense/apdeepsense/internal/tensor"
)

// seqDenseEntry is one dense row of BENCH_seq.json: a rectifier network
// propagated per sample on the backend its activation picks, the exact
// closed form.
type seqDenseEntry struct {
	Network          string  `json:"network"`
	ExactNsPerSample float64 `json:"exact_ns_per_sample"`
}

// seqPathEntry is one sequence-workload row: the conv, Elman, GRU and LSTM
// moment-propagation fast paths on representative IoT-scale models.
type seqPathEntry struct {
	Path           string  `json:"path"`
	Shape          string  `json:"shape"`
	Steps          int     `json:"steps"`
	NsPerSample    float64 `json:"ns_per_sample"`
	NsPerStep      float64 `json:"ns_per_step"`
	SamplesPerSec  float64 `json:"samples_per_sec"`
	DenseFLOPs     int64   `json:"dense_flops"`
	ElementOps     int64   `json:"element_ops"`
	MomentsBackend string  `json:"moments_backend"`
}

type seqBenchReport struct {
	GOMAXPROCS int             `json:"gomaxprocs"`
	Timestamp  string          `json:"timestamp"`
	Dense      []seqDenseEntry `json:"dense_cost_parity"`
	Paths      []seqPathEntry  `json:"sequence_paths"`
}

// emitSeqBench measures (a) the exact activation backend on dense rectifier
// reference nets and (b) the conv/RNN/GRU/LSTM sequence moment-propagation
// paths. Results print as a table and land in BENCH_seq.json under dir.
func emitSeqBench(dir string) error {
	rep := seqBenchReport{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
	}
	tbl := &report.Table{
		Title:   "Sequence paths and the exact activation backend",
		Headers: []string{"path", "shape", "µs/sample", "ns/step", "samples/s"},
	}
	rng := rand.New(rand.NewSource(11))

	// --- Dense rectifier nets on the exact backend. ---
	for _, cfg := range []struct {
		name   string
		hidden []int
	}{
		{"5-64-64-1", []int{64, 64}},
		{"5-256-256-1", []int{256, 256}},
	} {
		net, err := nn.New(nn.Config{
			InputDim: 5, Hidden: cfg.hidden, OutputDim: 1,
			Activation: nn.ActReLU, OutputActivation: nn.ActIdentity,
			KeepProb: 0.9, Seed: 1,
		})
		if err != nil {
			return fmt.Errorf("seq bench: %w", err)
		}
		g := core.NewGaussianVec(net.InputDim())
		for i := range g.Mean {
			g.Mean[i] = rng.NormFloat64()
			g.Var[i] = rng.Float64()
		}
		prop, err := core.NewPropagator(net, core.Options{})
		if err != nil {
			return fmt.Errorf("seq bench: %w", err)
		}
		e := seqDenseEntry{
			Network: cfg.name,
			ExactNsPerSample: timePerBatch(func() error {
				_, err := prop.PropagateFrom(g.Clone())
				return err
			}),
		}
		rep.Dense = append(rep.Dense, e)
		tbl.AddRow("dense/exact", cfg.name, fmt.Sprintf("%.1f", e.ExactNsPerSample/1e3), "-",
			fmt.Sprintf("%.0f", 1e9/e.ExactNsPerSample))
	}

	// --- Conv path. ---
	const convSteps = 64
	convNet, err := buildSeqConvNet()
	if err != nil {
		return err
	}
	x := conv.NewSeq(convSteps, 3)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	convNs := timePerBatch(func() error {
		_, err := convNet.PropagateMoments(x)
		return err
	})
	convCost, err := convNet.Cost(convSteps)
	if err != nil {
		return err
	}
	rep.Paths = append(rep.Paths, seqPathEntry{
		Path: "conv1d", Shape: "3ch k3/s1·32 + k3/s2·48 + head 48-64-4", Steps: convSteps,
		NsPerSample: convNs, NsPerStep: convNs / convSteps, SamplesPerSec: 1e9 / convNs,
		DenseFLOPs: convCost.DenseFLOPs, ElementOps: convCost.ElementOps,
		MomentsBackend: "exact",
	})

	// --- Elman cell path. ---
	const rnnSteps = 64
	cell, err := rnn.NewCell(8, 64, 4, nn.ActReLU, 0.9, rng)
	if err != nil {
		return err
	}
	xs := make([]tensor.Vector, rnnSteps)
	for t := range xs {
		xs[t] = make(tensor.Vector, 8)
		for i := range xs[t] {
			xs[t][i] = rng.NormFloat64()
		}
	}
	cellNs := timePerBatch(func() error {
		_, err := cell.PropagateMoments(xs)
		return err
	})
	cellCost, err := rnn.NewEstimator(cell, rnnSteps, 0)
	if err != nil {
		return err
	}
	rep.Paths = append(rep.Paths, seqPathEntry{
		Path: "rnn-cell", Shape: "8-64-4 relu", Steps: rnnSteps,
		NsPerSample: cellNs, NsPerStep: cellNs / rnnSteps, SamplesPerSec: 1e9 / cellNs,
		DenseFLOPs: cellCost.Cost().DenseFLOPs, ElementOps: cellCost.Cost().ElementOps,
		MomentsBackend: "exact",
	})

	// --- GRU path. ---
	gru, err := rnn.NewGRU(8, 48, 4, 0.9, rng)
	if err != nil {
		return err
	}
	gruNs := timePerBatch(func() error {
		_, err := gru.PropagateMoments(xs)
		return err
	})
	gruCost, err := rnn.NewGRUEstimator(gru, rnnSteps, 0)
	if err != nil {
		return err
	}
	rep.Paths = append(rep.Paths, seqPathEntry{
		Path: "gru", Shape: "8-48-4", Steps: rnnSteps,
		NsPerSample: gruNs, NsPerStep: gruNs / rnnSteps, SamplesPerSec: 1e9 / gruNs,
		DenseFLOPs: gruCost.Cost().DenseFLOPs, ElementOps: gruCost.Cost().ElementOps,
		MomentsBackend: "pwl",
	})

	// --- LSTM path. ---
	lstm, err := rnn.NewLSTM(8, 48, 4, 0.9, rng)
	if err != nil {
		return err
	}
	lstmNs := timePerBatch(func() error {
		_, err := lstm.PropagateMoments(xs)
		return err
	})
	lstmCost, err := lstm.Cost(rnnSteps)
	if err != nil {
		return err
	}
	rep.Paths = append(rep.Paths, seqPathEntry{
		Path: "lstm", Shape: "8-48-4", Steps: rnnSteps,
		NsPerSample: lstmNs, NsPerStep: lstmNs / rnnSteps, SamplesPerSec: 1e9 / lstmNs,
		DenseFLOPs: lstmCost.DenseFLOPs, ElementOps: lstmCost.ElementOps,
		MomentsBackend: "pwl",
	})

	for _, e := range rep.Paths {
		tbl.AddRow(e.Path, e.Shape, fmt.Sprintf("%.1f", e.NsPerSample/1e3),
			fmt.Sprintf("%.0f", e.NsPerStep), fmt.Sprintf("%.0f", e.SamplesPerSec))
	}

	text, err := tbl.Render()
	if err != nil {
		return err
	}
	fmt.Println(text)
	js, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "BENCH_seq.json"), append(js, '\n'), 0o644)
}

// buildSeqConvNet is the representative IoT conv stack for the sequence
// benchmark: two strided conv layers over a 3-channel signal and a small
// dense head.
func buildSeqConvNet() (*conv.Net, error) {
	rng := rand.New(rand.NewSource(13))
	c1, err := conv.NewConv1D(3, 3, 32, 1, nn.ActReLU, 0.9, rng)
	if err != nil {
		return nil, err
	}
	c2, err := conv.NewConv1D(3, 32, 48, 2, nn.ActLeakyReLU, 0.9, rng)
	if err != nil {
		return nil, err
	}
	head, err := nn.New(nn.Config{
		InputDim: 48, Hidden: []int{64}, OutputDim: 4,
		Activation: nn.ActReLU, OutputActivation: nn.ActIdentity,
		KeepProb: 0.9, Seed: 17,
	})
	if err != nil {
		return nil, err
	}
	return conv.NewNet([]*conv.Conv1D{c1, c2}, head)
}

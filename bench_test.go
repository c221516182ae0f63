// Benchmarks regenerating the paper's evaluation artifacts.
//
// One benchmark per table (Tables I–IV: estimator-grid evaluation over a
// task's test split) and per figure family (Figure 1's stochastic hidden-unit
// sampling, Figures 2–5's device cost model, Figures 6–9's tradeoff
// assembly), plus microbenchmarks of the hot primitives: the paper-scale
// forward pass, ApDeepSense moment propagation, MCDrop-k sampling, the
// truncated-Gaussian moment kernel, and the dense matmul.
//
// Model-quality benchmarks run at quick scale (models trained once per
// process); the system-cost benchmarks use the paper's exact 5-layer
// 512-wide architecture, where the measured wall-clock ratio between
// ApDeepSense and MCDrop-50 is the headline claim (§IV-E).
package apdeepsense_test

import (
	"math/rand"
	"sync"
	"testing"

	"github.com/apdeepsense/apdeepsense/internal/core"
	"github.com/apdeepsense/apdeepsense/internal/experiments"
	"github.com/apdeepsense/apdeepsense/internal/mcdrop"
	"github.com/apdeepsense/apdeepsense/internal/nn"
	"github.com/apdeepsense/apdeepsense/internal/piecewise"
	"github.com/apdeepsense/apdeepsense/internal/stats"
	"github.com/apdeepsense/apdeepsense/internal/tensor"
	"github.com/apdeepsense/apdeepsense/internal/train"
)

// sharedRunner trains quick-scale models once per benchmark process.
var (
	runnerOnce sync.Once
	runner     *experiments.Runner
	runnerErr  error
)

func quickRunner(b *testing.B) *experiments.Runner {
	b.Helper()
	runnerOnce.Do(func() {
		runner, runnerErr = experiments.NewRunner(experiments.QuickScale)
	})
	if runnerErr != nil {
		b.Fatalf("runner: %v", runnerErr)
	}
	return runner
}

func benchmarkTable(b *testing.B, n int) {
	r := quickRunner(b)
	if _, err := r.Table(n); err != nil { // warm: trains + caches models
		b.Fatalf("warm table %d: %v", n, err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Table(n); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1BPEst regenerates Table I (BPEst MAE + NLL grid).
func BenchmarkTable1BPEst(b *testing.B) { benchmarkTable(b, 1) }

// BenchmarkTable2NYCommute regenerates Table II (NYCommute MAE + NLL grid).
func BenchmarkTable2NYCommute(b *testing.B) { benchmarkTable(b, 2) }

// BenchmarkTable3GasSen regenerates Table III (GasSen MAE + NLL grid).
func BenchmarkTable3GasSen(b *testing.B) { benchmarkTable(b, 3) }

// BenchmarkTable4HHAR regenerates Table IV (HHAR ACC + NLL grid).
func BenchmarkTable4HHAR(b *testing.B) { benchmarkTable(b, 4) }

// BenchmarkFigure1HiddenUnits regenerates Figure 1 (hidden-unit output
// distributions of the 20-layer toy network).
func BenchmarkFigure1HiddenUnits(b *testing.B) {
	r := quickRunner(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Figure(1); err != nil {
			b.Fatal(err)
		}
	}
}

func benchmarkFigure(b *testing.B, n int) {
	r := quickRunner(b)
	if _, err := r.Figure(n); err != nil {
		b.Fatalf("warm figure %d: %v", n, err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Figure(n); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure2BPEstCost regenerates Figure 2 (BPEst time + energy bars).
func BenchmarkFigure2BPEstCost(b *testing.B) { benchmarkFigure(b, 2) }

// BenchmarkFigure3NYCommuteCost regenerates Figure 3.
func BenchmarkFigure3NYCommuteCost(b *testing.B) { benchmarkFigure(b, 3) }

// BenchmarkFigure4GasSenCost regenerates Figure 4.
func BenchmarkFigure4GasSenCost(b *testing.B) { benchmarkFigure(b, 4) }

// BenchmarkFigure5HHARCost regenerates Figure 5.
func BenchmarkFigure5HHARCost(b *testing.B) { benchmarkFigure(b, 5) }

// BenchmarkFigure6BPEstTradeoff regenerates Figure 6 (energy vs NLL).
func BenchmarkFigure6BPEstTradeoff(b *testing.B) { benchmarkFigure(b, 6) }

// BenchmarkFigure7NYCommuteTradeoff regenerates Figure 7.
func BenchmarkFigure7NYCommuteTradeoff(b *testing.B) { benchmarkFigure(b, 7) }

// BenchmarkFigure8GasSenTradeoff regenerates Figure 8.
func BenchmarkFigure8GasSenTradeoff(b *testing.B) { benchmarkFigure(b, 8) }

// BenchmarkFigure9HHARTradeoff regenerates Figure 9.
func BenchmarkFigure9HHARTradeoff(b *testing.B) { benchmarkFigure(b, 9) }

// paperNet builds the paper's 5-layer 512-wide architecture for the
// NYCommute dimensions (5 → 1).
func paperNet(b *testing.B, act nn.Activation) *nn.Network {
	b.Helper()
	net, err := nn.New(nn.Config{
		InputDim: 5, Hidden: []int{512, 512, 512, 512}, OutputDim: 1,
		Activation: act, OutputActivation: nn.ActIdentity,
		KeepProb: 0.9, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	return net
}

var paperInput = tensor.Vector{0.1, -0.5, 0.3, 1.2, -0.7}

// BenchmarkForwardPassReLU is one plain stochastic pass — the MCDrop unit of
// cost — at paper scale.
func BenchmarkForwardPassReLU(b *testing.B) {
	net := paperNet(b, nn.ActReLU)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := net.ForwardSample(paperInput, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func benchmarkApDeepSense(b *testing.B, act nn.Activation) {
	net := paperNet(b, act)
	est, err := core.NewApDeepSense(net, core.Options{}, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := est.Predict(paperInput); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkApDeepSenseReLU is the full ApDeepSense pass at paper scale
// (exact 2-piece ReLU moments).
func BenchmarkApDeepSenseReLU(b *testing.B) { benchmarkApDeepSense(b, nn.ActReLU) }

// BenchmarkApDeepSenseTanh is the full ApDeepSense pass at paper scale
// (7-piece tanh approximation).
func BenchmarkApDeepSenseTanh(b *testing.B) { benchmarkApDeepSense(b, nn.ActTanh) }

func benchmarkMCDrop(b *testing.B, k int) {
	net := paperNet(b, nn.ActReLU)
	est, err := mcdrop.New(net, k, 0, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := est.Predict(paperInput); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMCDrop3 is MCDrop with 3 samples at paper scale.
func BenchmarkMCDrop3(b *testing.B) { benchmarkMCDrop(b, 3) }

// BenchmarkMCDrop10 is MCDrop with 10 samples at paper scale.
func BenchmarkMCDrop10(b *testing.B) { benchmarkMCDrop(b, 10) }

// BenchmarkMCDrop50 is MCDrop with 50 samples at paper scale — the
// comparison point of the headline 88.9%/90.0% savings claim.
func BenchmarkMCDrop50(b *testing.B) { benchmarkMCDrop(b, 50) }

// fitEpochSamples is the training-set size of one BenchmarkFitEpoch op: 16
// minibatches of 64.
const fitEpochSamples = 1024

func benchmarkFitEpoch(b *testing.B, act nn.Activation) {
	net, err := nn.New(nn.Config{
		InputDim: 5, Hidden: []int{128, 128, 128, 128}, OutputDim: 1,
		Activation: act, OutputActivation: nn.ActIdentity,
		KeepProb: 0.9, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	data := make([]train.Sample, fitEpochSamples)
	for i := range data {
		x := make(tensor.Vector, 5)
		for j := range x {
			x[j] = rng.NormFloat64()
		}
		data[i] = train.Sample{X: x, Y: tensor.Vector{x[0] - x[1]*x[2]}}
	}
	cfg := train.Config{Epochs: 1, BatchSize: 64, Seed: 1, Loss: train.MSE{}, Optimizer: train.NewAdam(1e-3)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := train.Fit(net, data, nil, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFitEpochReLU is one training epoch (1024 samples, batch 64) of
// the default-scale 5-128×4-1 ReLU dropout network: the reference models'
// training cost.
func BenchmarkFitEpochReLU(b *testing.B) { benchmarkFitEpoch(b, nn.ActReLU) }

// BenchmarkFitEpochTanh is BenchmarkFitEpochReLU with tanh hidden units.
func BenchmarkFitEpochTanh(b *testing.B) { benchmarkFitEpoch(b, nn.ActTanh) }

// BenchmarkTruncatedMoments is the per-piece kernel of the activation
// moment propagation (eqs. 23–25).
func BenchmarkTruncatedMoments(b *testing.B) {
	var sink stats.PartialMoments
	for i := 0; i < b.N; i++ {
		sink = stats.TruncatedMoments(-0.5, 1.5, 0.3, 1.1)
	}
	_ = sink
}

// BenchmarkActivationMomentsTanh7 is the per-element moment propagation
// through the paper's 7-piece tanh approximation.
func BenchmarkActivationMomentsTanh7(b *testing.B) {
	f, err := piecewise.Tanh(7)
	if err != nil {
		b.Fatal(err)
	}
	var m, v float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, v = core.ActivationMoments(0.4, 0.8, f)
	}
	_, _ = m, v
}

// batchNet builds the 2-hidden-layer 256-unit network of the batched-path
// acceptance benchmark (5 → 256 → 256 → 1).
func batchNet(b *testing.B, act nn.Activation) *nn.Network {
	b.Helper()
	net, err := nn.New(nn.Config{
		InputDim: 5, Hidden: []int{256, 256}, OutputDim: 1,
		Activation: act, OutputActivation: nn.ActIdentity,
		KeepProb: 0.9, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	return net
}

func batchBenchInputs(n int) []tensor.Vector {
	rng := rand.New(rand.NewSource(7))
	inputs := make([]tensor.Vector, n)
	for i := range inputs {
		v := make(tensor.Vector, 5)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		inputs[i] = v
	}
	return inputs
}

// benchmarkPropagateSequential is the per-sample baseline: the batch pushed
// through Propagate one vector at a time, as PredictBatch did before the
// matrix-level path existed. One benchmark op = one 64-sample batch.
func benchmarkPropagateSequential(b *testing.B, act nn.Activation, batch int) {
	prop, err := core.NewPropagator(batchNet(b, act), core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	inputs := batchBenchInputs(batch)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, x := range inputs {
			if _, err := prop.Propagate(x); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// benchmarkPropagateBatch is the batched matrix-level path over the same
// inputs. One benchmark op = one 64-sample batch, so ns/op is directly
// comparable with the sequential baseline.
func benchmarkPropagateBatch(b *testing.B, act nn.Activation, batch int) {
	prop, err := core.NewPropagator(batchNet(b, act), core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	inputs := batchBenchInputs(batch)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := prop.PropagateBatch(inputs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPropagateSequential64ReLU vs BenchmarkPropagateBatch64ReLU is the
// batched-vs-per-sample pair at batch size 64 on the 2-hidden-layer 256-unit
// network. Per-sample calls run the same engine at one row, so the pair sits
// near 1× (1.0–1.3× on a 2-vCPU Xeon); 2× or more means per-sample calls
// left the engine.
func BenchmarkPropagateSequential64ReLU(b *testing.B) {
	benchmarkPropagateSequential(b, nn.ActReLU, 64)
}

// BenchmarkPropagateBatch64ReLU is the batched counterpart.
func BenchmarkPropagateBatch64ReLU(b *testing.B) { benchmarkPropagateBatch(b, nn.ActReLU, 64) }

// BenchmarkPropagateSequential64Tanh is the sequential baseline with the
// 7-piece tanh approximation, where activation moments dominate.
func BenchmarkPropagateSequential64Tanh(b *testing.B) {
	benchmarkPropagateSequential(b, nn.ActTanh, 64)
}

// BenchmarkPropagateBatch64Tanh is the batched counterpart.
func BenchmarkPropagateBatch64Tanh(b *testing.B) { benchmarkPropagateBatch(b, nn.ActTanh, 64) }

// BenchmarkDenseMatMul64x512 is the blocked matrix–matrix kernel feeding the
// batched path, directly comparable (per 64 rows) with 64 MulVecInto calls.
func BenchmarkDenseMatMul64x512(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	w := tensor.NewMatrix(512, 512)
	w.RandomNormal(rng, 0, 1)
	x := tensor.NewMatrix(64, 512)
	x.RandomNormal(rng, 0, 1)
	dst := tensor.NewMatrix(64, 512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := x.MulInto(w, dst); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDenseMatVec512 is the 512×512 dense kernel underlying every pass.
func BenchmarkDenseMatVec512(b *testing.B) {
	w := tensor.NewMatrix(512, 512)
	w.RandomNormal(rand.New(rand.NewSource(1)), 0, 1)
	x := make(tensor.Vector, 512)
	for i := range x {
		x[i] = rand.Float64()
	}
	dst := make(tensor.Vector, 512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.MulVecInto(x, dst)
	}
}

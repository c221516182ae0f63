package train

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"github.com/apdeepsense/apdeepsense/internal/nn"
	"github.com/apdeepsense/apdeepsense/internal/tensor"
)

func TestMSELoss(t *testing.T) {
	grad := tensor.NewVector(2)
	lv, err := MSE{}.Eval(tensor.Vector{1, 2}, tensor.Vector{0, 0}, grad)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lv-2.5) > 1e-12 { // (1+4)/2
		t.Errorf("MSE = %v, want 2.5", lv)
	}
	if !grad.Equal(tensor.Vector{1, 2}, 1e-12) { // 2*(p-t)/2
		t.Errorf("grad = %v, want [1 2]", grad)
	}
	if _, err := (MSE{}).Eval(tensor.Vector{1}, tensor.Vector{1, 2}, grad); !errors.Is(err, ErrConfig) {
		t.Errorf("dim err = %v", err)
	}
}

func TestSoftmaxCrossEntropy(t *testing.T) {
	grad := tensor.NewVector(3)
	pred := tensor.Vector{2, 1, 0}
	target := tensor.Vector{1, 0, 0}
	lv, err := SoftmaxCrossEntropy{}.Eval(pred, target, grad)
	if err != nil {
		t.Fatal(err)
	}
	if lv <= 0 {
		t.Errorf("xent = %v, want > 0", lv)
	}
	// Gradient sums to zero (softmax minus one-hot).
	if math.Abs(grad.Sum()) > 1e-12 {
		t.Errorf("grad sums to %v", grad.Sum())
	}
	// Perfect prediction has near-zero loss.
	lv2, _ := SoftmaxCrossEntropy{}.Eval(tensor.Vector{100, 0, 0}, target, grad)
	if lv2 > 1e-9 {
		t.Errorf("confident correct xent = %v", lv2)
	}
}

func TestHeteroscedasticNLL(t *testing.T) {
	h := HeteroscedasticNLL{Alpha: 1}
	grad := tensor.NewVector(4)
	// mu = target, logvar = 0: loss = 0.5*(0 + 0) = 0 per dim.
	lv, err := h.Eval(tensor.Vector{1, 2, 0, 0}, tensor.Vector{1, 2}, grad)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lv) > 1e-12 {
		t.Errorf("exact-fit NLL = %v, want 0", lv)
	}
	// Under-confident: residual 1, logvar 0 -> gradient pushes logvar down?
	// d/dlv [0.5(lv + r² e^{-lv})] = 0.5(1 - r² e^{-lv}); r=1 -> 0. Optimum.
	_, err = h.Eval(tensor.Vector{0, 0, 0, 0}, tensor.Vector{1, 1}, grad)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(grad[2]) > 1e-12 || math.Abs(grad[3]) > 1e-12 {
		t.Errorf("logvar grad at optimum = %v, want 0", grad[2:])
	}
	if _, err := h.Eval(tensor.Vector{1, 2, 3}, tensor.Vector{1}, grad); !errors.Is(err, ErrConfig) {
		t.Errorf("dim err = %v", err)
	}
}

// TestGradientCheck verifies the analytic backprop gradients against central
// finite differences on a dropout-free network, for all three losses.
func TestGradientCheck(t *testing.T) {
	cases := []struct {
		name   string
		act    nn.Activation
		outDim int
		loss   Loss
		target tensor.Vector
	}{
		{"mse-tanh", nn.ActTanh, 2, MSE{}, tensor.Vector{0.3, -0.7}},
		{"mse-relu", nn.ActReLU, 2, MSE{}, tensor.Vector{0.3, -0.7}},
		{"xent-relu", nn.ActReLU, 3, SoftmaxCrossEntropy{}, tensor.Vector{0, 1, 0}},
		{"hetero-sigmoid", nn.ActSigmoid, 4, HeteroscedasticNLL{Alpha: 0.8}, tensor.Vector{0.5, -0.5}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			net, err := nn.New(nn.Config{
				InputDim: 3, Hidden: []int{5}, OutputDim: c.outDim,
				Activation: c.act, OutputActivation: nn.ActIdentity,
				KeepProb: 1, Seed: 42,
			})
			if err != nil {
				t.Fatal(err)
			}
			s := Sample{X: tensor.Vector{0.5, -1, 0.8}, Y: c.target}
			ws := newWorkspace(net, 1)
			rng := rand.New(rand.NewSource(1))
			if _, err := ws.batchGrads([]Sample{s}, []int{0}, c.loss, rng, 0); err != nil {
				t.Fatal(err)
			}

			lossAt := func() float64 {
				pred, err := net.Forward(s.X)
				if err != nil {
					t.Fatal(err)
				}
				g := tensor.NewVector(c.outDim)
				lv, err := c.loss.Eval(pred, s.Y, g)
				if err != nil {
					t.Fatal(err)
				}
				return lv
			}

			const h = 1e-6
			for li, l := range net.Layers() {
				for idx := range l.W.Data {
					orig := l.W.Data[idx]
					l.W.Data[idx] = orig + h
					up := lossAt()
					l.W.Data[idx] = orig - h
					down := lossAt()
					l.W.Data[idx] = orig
					num := (up - down) / (2 * h)
					got := ws.gradW[li].Data[idx]
					if math.Abs(num-got) > 1e-4*(1+math.Abs(num)) {
						t.Fatalf("layer %d W[%d]: analytic %v vs numeric %v", li, idx, got, num)
					}
				}
				for idx := range l.B {
					orig := l.B[idx]
					l.B[idx] = orig + h
					up := lossAt()
					l.B[idx] = orig - h
					down := lossAt()
					l.B[idx] = orig
					num := (up - down) / (2 * h)
					got := ws.gradB[li][idx]
					if math.Abs(num-got) > 1e-4*(1+math.Abs(num)) {
						t.Fatalf("layer %d B[%d]: analytic %v vs numeric %v", li, idx, got, num)
					}
				}
			}
		})
	}
}

func makeRegressionData(n int, seed int64) []Sample {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Sample, n)
	for i := range out {
		x := rng.Float64()*4 - 2
		y := math.Sin(x)
		out[i] = Sample{X: tensor.Vector{x}, Y: tensor.Vector{y}}
	}
	return out
}

func TestFitRegressionConverges(t *testing.T) {
	net, err := nn.New(nn.Config{
		InputDim: 1, Hidden: []int{32, 32}, OutputDim: 1,
		Activation: nn.ActTanh, OutputActivation: nn.ActIdentity,
		KeepProb: 0.95, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	trainSet := makeRegressionData(600, 1)
	valSet := makeRegressionData(100, 2)
	hist, err := Fit(net, trainSet, valSet, Config{
		Epochs: 40, BatchSize: 32, Seed: 7,
		Loss: MSE{}, Optimizer: NewAdam(0.01),
	})
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	final, err := EvalLoss(net, valSet, MSE{})
	if err != nil {
		t.Fatal(err)
	}
	if final > 0.02 {
		t.Errorf("sin regression val MSE = %v, want < 0.02 (history %v)", final, hist.ValLoss)
	}
	if hist.TrainLoss[len(hist.TrainLoss)-1] >= hist.TrainLoss[0] {
		t.Error("training loss did not decrease")
	}
}

func TestFitClassificationConverges(t *testing.T) {
	// Two Gaussian blobs, linearly separable.
	rng := rand.New(rand.NewSource(5))
	var data []Sample
	for i := 0; i < 400; i++ {
		cls := i % 2
		cx := float64(cls*4 - 2)
		x := tensor.Vector{cx + rng.NormFloat64()*0.7, rng.NormFloat64()}
		y := tensor.Vector{0, 0}
		y[cls] = 1
		data = append(data, Sample{X: x, Y: y})
	}
	net, err := nn.New(nn.Config{
		InputDim: 2, Hidden: []int{16}, OutputDim: 2,
		Activation: nn.ActReLU, OutputActivation: nn.ActIdentity,
		KeepProb: 0.9, Seed: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Fit(net, data, nil, Config{
		Epochs: 30, BatchSize: 16, Seed: 2,
		Loss: SoftmaxCrossEntropy{}, Optimizer: NewAdam(0.01),
	}); err != nil {
		t.Fatal(err)
	}
	correct := 0
	for _, s := range data {
		pred, err := net.Forward(s.X)
		if err != nil {
			t.Fatal(err)
		}
		_, pi := pred.Max()
		_, ti := s.Y.Max()
		if pi == ti {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(data)); acc < 0.95 {
		t.Errorf("blob accuracy = %v, want >= 0.95", acc)
	}
}

func TestFitHeteroscedasticLearnsVariance(t *testing.T) {
	// y = noise with x-dependent scale; the model must learn logvar ≈ log(x²).
	rng := rand.New(rand.NewSource(11))
	var data []Sample
	for i := 0; i < 1500; i++ {
		x := 0.5 + rng.Float64()*2 // std in [0.5, 2.5]
		y := x * rng.NormFloat64()
		data = append(data, Sample{X: tensor.Vector{x}, Y: tensor.Vector{y}})
	}
	net, err := nn.New(nn.Config{
		InputDim: 1, Hidden: []int{24, 24}, OutputDim: 2, // mean + logvar
		Activation: nn.ActTanh, OutputActivation: nn.ActIdentity,
		KeepProb: 1, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Fit(net, data, nil, Config{
		Epochs: 60, BatchSize: 32, Seed: 5,
		Loss: HeteroscedasticNLL{Alpha: 1}, Optimizer: NewAdam(0.01),
	}); err != nil {
		t.Fatal(err)
	}
	// Predicted std should grow with x and be in the right ballpark.
	predStd := func(x float64) float64 {
		out, err := net.Forward(tensor.Vector{x})
		if err != nil {
			t.Fatal(err)
		}
		return math.Exp(out[1] / 2)
	}
	sLo, sHi := predStd(0.7), predStd(2.2)
	if sHi <= sLo {
		t.Errorf("predicted std not increasing: std(0.7)=%v std(2.2)=%v", sLo, sHi)
	}
	if sLo < 0.3 || sLo > 1.4 {
		t.Errorf("std(0.7) = %v, want ≈ 0.7", sLo)
	}
	if sHi < 1.2 || sHi > 3.5 {
		t.Errorf("std(2.2) = %v, want ≈ 2.2", sHi)
	}
}

func TestFitEarlyStoppingRestoresBest(t *testing.T) {
	net, err := nn.New(nn.Config{
		InputDim: 1, Hidden: []int{8}, OutputDim: 1,
		Activation: nn.ActTanh, OutputActivation: nn.ActIdentity,
		KeepProb: 1, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	trainSet := makeRegressionData(50, 1)
	valSet := makeRegressionData(30, 2)
	hist, err := Fit(net, trainSet, valSet, Config{
		Epochs: 100, BatchSize: 10, Seed: 3,
		Loss: MSE{}, Optimizer: NewAdam(0.05), // big LR to force oscillation
		EarlyStopPatience: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(hist.ValLoss) >= 100 {
		t.Log("early stopping never triggered (acceptable but unexpected)")
	}
	// The network's current val loss must equal the best recorded val loss.
	best := math.Inf(1)
	for _, v := range hist.ValLoss {
		if v < best {
			best = v
		}
	}
	cur, err := EvalLoss(net, valSet, MSE{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cur-best) > 1e-9 {
		t.Errorf("restored val loss %v != best %v", cur, best)
	}
	if hist.BestEpoch >= len(hist.ValLoss) {
		t.Errorf("BestEpoch %d out of range %d", hist.BestEpoch, len(hist.ValLoss))
	}
}

func TestFitValidation(t *testing.T) {
	net, _ := nn.New(nn.Config{
		InputDim: 1, Hidden: nil, OutputDim: 1,
		Activation: nn.ActIdentity, OutputActivation: nn.ActIdentity,
		KeepProb: 1, Seed: 1,
	})
	data := makeRegressionData(10, 1)
	bad := []Config{
		{Epochs: 0, BatchSize: 2, Loss: MSE{}, Optimizer: NewAdam(0.01)},
		{Epochs: 1, BatchSize: 0, Loss: MSE{}, Optimizer: NewAdam(0.01)},
		{Epochs: 1, BatchSize: 100, Loss: MSE{}, Optimizer: NewAdam(0.01)},
		{Epochs: 1, BatchSize: 2, Loss: nil, Optimizer: NewAdam(0.01)},
		{Epochs: 1, BatchSize: 2, Loss: MSE{}, Optimizer: nil},
		{Epochs: 1, BatchSize: 2, Loss: MSE{}, Optimizer: NewAdam(0.01), WeightDecay: -1},
		{Epochs: 1, BatchSize: 2, Loss: MSE{}, Optimizer: NewAdam(0.01), EarlyStopPatience: 2},
	}
	for i, cfg := range bad {
		if _, err := Fit(net, data, nil, cfg); !errors.Is(err, ErrConfig) {
			t.Errorf("case %d: err = %v, want ErrConfig", i, err)
		}
	}
	// Mismatched sample dims.
	badData := []Sample{{X: tensor.Vector{1, 2}, Y: tensor.Vector{1}}}
	if _, err := Fit(net, badData, nil, Config{Epochs: 1, BatchSize: 1, Loss: MSE{}, Optimizer: NewAdam(0.01)}); !errors.Is(err, ErrConfig) {
		t.Errorf("bad sample err = %v, want ErrConfig", err)
	}
}

func TestEvalLossEmpty(t *testing.T) {
	net, _ := nn.New(nn.Config{
		InputDim: 1, Hidden: nil, OutputDim: 1,
		Activation: nn.ActIdentity, OutputActivation: nn.ActIdentity,
		KeepProb: 1, Seed: 1,
	})
	if _, err := EvalLoss(net, nil, MSE{}); !errors.Is(err, ErrConfig) {
		t.Errorf("empty err = %v, want ErrConfig", err)
	}
}

func TestOptimizersReduceQuadratic(t *testing.T) {
	// Minimize f(w) = Σ w², gradient 2w, from w = 1.
	for _, opt := range []Optimizer{NewSGD(0.1, 0), NewSGD(0.05, 0.9), NewAdam(0.1)} {
		w := []float64{1, -1, 2}
		g := make([]float64, 3)
		for step := 0; step < 200; step++ {
			opt.BeginStep()
			for i := range w {
				g[i] = 2 * w[i]
			}
			opt.Update(0, w, g)
		}
		for i, wi := range w {
			if math.Abs(wi) > 0.01 {
				t.Errorf("%s: w[%d] = %v after 200 steps", opt.Name(), i, wi)
			}
		}
	}
}

func TestWeightDecayShrinksWeights(t *testing.T) {
	mk := func(decay float64) float64 {
		net, err := nn.New(nn.Config{
			InputDim: 1, Hidden: []int{16}, OutputDim: 1,
			Activation: nn.ActTanh, OutputActivation: nn.ActIdentity,
			KeepProb: 1, Seed: 9,
		})
		if err != nil {
			t.Fatal(err)
		}
		data := makeRegressionData(200, 4)
		if _, err := Fit(net, data, nil, Config{
			Epochs: 20, BatchSize: 20, Seed: 1,
			Loss: MSE{}, Optimizer: NewSGD(0.05, 0), WeightDecay: decay,
		}); err != nil {
			t.Fatal(err)
		}
		var norm float64
		for _, l := range net.Layers() {
			for _, w := range l.W.Data {
				norm += w * w
			}
		}
		return norm
	}
	if heavy, light := mk(0.05), mk(0); heavy >= light {
		t.Errorf("weight decay did not shrink weights: %v vs %v", heavy, light)
	}
}

func TestClipNormBounded(t *testing.T) {
	// With an absurd learning rate and no clipping, weights blow up; with
	// clipping they stay finite.
	mk := func(clip float64) bool {
		net, err := nn.New(nn.Config{
			InputDim: 1, Hidden: []int{8}, OutputDim: 1,
			Activation: nn.ActReLU, OutputActivation: nn.ActIdentity,
			KeepProb: 1, Seed: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		data := makeRegressionData(100, 3)
		_, err = Fit(net, data, nil, Config{
			Epochs: 10, BatchSize: 10, Seed: 1,
			Loss: MSE{}, Optimizer: NewSGD(5, 0), ClipNorm: clip,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range net.Layers() {
			if l.W.HasNaN() {
				return false
			}
		}
		return true
	}
	if !mk(0.5) {
		t.Error("clipped training produced NaN")
	}
}

// TestFitBadTargetLeavesWeights checks every target against the loss before
// the first update: a training or validation set whose last target has the
// wrong width is rejected with every weight bit as it was.
func TestFitBadTargetLeavesWeights(t *testing.T) {
	net, err := nn.New(nn.Config{
		InputDim: 1, Hidden: []int{6}, OutputDim: 1,
		Activation: nn.ActTanh, OutputActivation: nn.ActIdentity,
		KeepProb: 0.9, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	var want []float64
	for _, l := range net.Layers() {
		want = append(append(want, l.W.Data...), l.B...)
	}
	good := makeRegressionData(20, 1)
	bad := append(append([]Sample(nil), good...), Sample{X: tensor.Vector{0.5}, Y: tensor.Vector{1, 2}})
	cfg := Config{Epochs: 2, BatchSize: 4, Seed: 1, Loss: MSE{}, Optimizer: NewAdam(0.01)}
	for name, sets := range map[string][2][]Sample{"train": {bad, nil}, "validation": {good, bad}} {
		if _, err := Fit(net, sets[0], sets[1], cfg); !errors.Is(err, ErrConfig) {
			t.Fatalf("%s: err = %v, want ErrConfig", name, err)
		}
		i := 0
		for _, l := range net.Layers() {
			for _, v := range append(append([]float64(nil), l.W.Data...), l.B...) {
				if math.Float64bits(v) != math.Float64bits(want[i]) {
					t.Fatalf("%s: parameter %d changed by a rejected Fit: %v -> %v", name, i, want[i], v)
				}
				i++
			}
		}
	}
}

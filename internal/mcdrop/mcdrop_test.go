package mcdrop

import (
	"errors"
	"math"
	"runtime"
	"testing"

	"github.com/apdeepsense/apdeepsense/internal/core"
	"github.com/apdeepsense/apdeepsense/internal/nn"
	"github.com/apdeepsense/apdeepsense/internal/tensor"
)

func testNet(t *testing.T, keep float64) *nn.Network {
	t.Helper()
	net, err := nn.New(nn.Config{
		InputDim: 4, Hidden: []int{12, 12}, OutputDim: 3,
		Activation: nn.ActReLU, OutputActivation: nn.ActIdentity,
		KeepProb: keep, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestNewValidation(t *testing.T) {
	net := testNet(t, 0.9)
	if _, err := New(net, 1, 0, 1); !errors.Is(err, ErrConfig) {
		t.Errorf("k=1 err = %v, want ErrConfig", err)
	}
	if _, err := New(net, 10, -1, 1); !errors.Is(err, ErrConfig) {
		t.Errorf("neg obsVar err = %v, want ErrConfig", err)
	}
}

func TestName(t *testing.T) {
	net := testNet(t, 0.9)
	e, err := New(net, 30, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if e.Name() != "MCDrop-30" {
		t.Errorf("Name = %q", e.Name())
	}
	if e.K() != 30 {
		t.Errorf("K = %d", e.K())
	}
}

func TestPredictMomentsConvergeToApDeepSense(t *testing.T) {
	// With a very large k, MCDrop's moments should approach the closed-form
	// ApDeepSense moments for a ReLU network (where the PWL is exact).
	net := testNet(t, 0.8)
	apds, err := core.NewApDeepSense(net, core.Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	mc, err := New(net, 40000, 0, 9)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.Vector{1, -0.5, 0.25, 2}
	want, err := apds.Predict(x)
	if err != nil {
		t.Fatal(err)
	}
	got, err := mc.Predict(x)
	if err != nil {
		t.Fatal(err)
	}
	// MCDrop at k = 40000 is near ground truth; ApDeepSense carries the bias
	// of its diagonal-covariance assumption, which is pronounced on a narrow
	// 12-unit network. Agreement must be same-order, not exact — the paper's
	// own §IV-D frames this as ApDeepSense's bias-variance tradeoff.
	for j := 0; j < 3; j++ {
		if math.Abs(got.Mean[j]-want.Mean[j]) > 0.15*math.Sqrt(want.Var[j])+0.02 {
			t.Errorf("out %d: MCDrop mean %v vs ApDeepSense %v", j, got.Mean[j], want.Mean[j])
		}
		if want.Var[j] > 1e-6 {
			ratio := got.Var[j] / want.Var[j]
			if ratio < 0.4 || ratio > 2.5 {
				t.Errorf("out %d: MCDrop var %v vs ApDeepSense %v (ratio %v)", j, got.Var[j], want.Var[j], ratio)
			}
		}
	}
}

func TestPredictSmallKVarianceIsNoisy(t *testing.T) {
	// With k = 3 the variance estimate varies wildly across calls — the
	// instability that destroys MCDrop-3's NLL in the paper.
	net := testNet(t, 0.7)
	mc, err := New(net, 3, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.Vector{1, 1, 1, 1}
	var lo, hi float64 = math.Inf(1), 0
	for i := 0; i < 50; i++ {
		g, err := mc.Predict(x)
		if err != nil {
			t.Fatal(err)
		}
		v := g.Var[0]
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if hi < 5*lo {
		t.Errorf("k=3 variance range [%v, %v] suspiciously stable", lo, hi)
	}
}

func TestObsVarAdded(t *testing.T) {
	net := testNet(t, 1) // no dropout: sample variance is exactly 0
	mc, err := New(net, 5, 2.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	g, err := mc.Predict(tensor.Vector{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	for j, v := range g.Var {
		if math.Abs(v-2.5) > 1e-12 {
			t.Errorf("var[%d] = %v, want obsVar 2.5", j, v)
		}
	}
}

func TestPredictProbs(t *testing.T) {
	net := testNet(t, 0.8)
	mc, err := New(net, 20, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	p, err := mc.PredictProbs(tensor.Vector{0.3, -1, 0.5, 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p.Sum()-1) > 1e-9 {
		t.Errorf("probs sum to %v", p.Sum())
	}
	for _, v := range p {
		if v < 0 || v > 1 {
			t.Errorf("prob %v outside [0,1]", v)
		}
	}
}

func TestPredictErrorsOnBadInput(t *testing.T) {
	net := testNet(t, 0.9)
	mc, err := New(net, 3, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mc.Predict(tensor.Vector{1}); err == nil {
		t.Error("expected error for wrong input dim")
	}
	if _, err := mc.PredictProbs(tensor.Vector{1}); err == nil {
		t.Error("expected error for wrong input dim")
	}
}

func TestCostScalesWithK(t *testing.T) {
	net := testNet(t, 0.9)
	mc3, _ := New(net, 3, 0, 1)
	mc30, _ := New(net, 30, 0, 1)
	c3, c30 := mc3.Cost(), mc30.Cost()
	if c30.DenseFLOPs != 10*c3.DenseFLOPs {
		t.Errorf("DenseFLOPs %d vs 10x %d", c30.DenseFLOPs, c3.DenseFLOPs)
	}
	if c30.RandomDraws != 10*c3.RandomDraws {
		t.Errorf("RandomDraws %d vs 10x %d", c30.RandomDraws, c3.RandomDraws)
	}
	if c3.RandomDraws == 0 {
		t.Error("dropout net should report random draws")
	}
}

// TestParallelPredictDeterministic: the estimate does not depend on the
// host's parallelism. Two estimators built alike agree bit for bit across
// repeated calls even when each runs under a different GOMAXPROCS.
func TestParallelPredictDeterministic(t *testing.T) {
	net := testNet(t, 0.8)
	x := tensor.Vector{0.5, -1, 2, 0.1}
	a, err := New(net, 64, 0.01, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(net, 64, 0.01, 7)
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for call := 0; call < 3; call++ {
		runtime.GOMAXPROCS(1)
		ga, err := a.Predict(x)
		if err != nil {
			t.Fatal(err)
		}
		runtime.GOMAXPROCS(4)
		gb, err := b.Predict(x)
		if err != nil {
			t.Fatal(err)
		}
		if !ga.Mean.Equal(gb.Mean, 0) || !ga.Var.Equal(gb.Var, 0) {
			t.Fatalf("call %d: same-config estimators disagree: %v/%v vs %v/%v",
				call, ga.Mean, ga.Var, gb.Mean, gb.Var)
		}
	}
}

// TestParallelMomentsMatchSequential: at k = 20000 (hundreds of sample
// tiles) the estimate under GOMAXPROCS 4 is bit-identical to the one under
// GOMAXPROCS 1, the sequential single-stream result.
func TestParallelMomentsMatchSequential(t *testing.T) {
	net := testNet(t, 0.8)
	x := tensor.Vector{1, -0.5, 0.25, 2}
	const k = 20000
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	predict := func(procs int) core.GaussianVec {
		runtime.GOMAXPROCS(procs)
		e, err := New(net, k, 0, 3)
		if err != nil {
			t.Fatal(err)
		}
		g, err := e.Predict(x)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	gs, gp := predict(1), predict(4)
	if !gs.Mean.Equal(gp.Mean, 0) || !gs.Var.Equal(gp.Var, 0) {
		t.Errorf("GOMAXPROCS 4 estimate %v/%v differs from GOMAXPROCS 1 %v/%v", gp.Mean, gp.Var, gs.Mean, gs.Var)
	}
}

// TestParallelObsVarAdded mirrors TestObsVarAdded across several sample
// tiles: with no dropout the sample variance collapses to exactly obsVar
// however the passes are tiled.
func TestParallelObsVarAdded(t *testing.T) {
	net := testNet(t, 1)
	mc, err := New(net, 2*nn.SampleTile+3, 1.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	g, err := mc.Predict(tensor.Vector{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	for j, v := range g.Var {
		if math.Abs(v-1.5) > 1e-12 {
			t.Errorf("var[%d] = %v, want obsVar 1.5", j, v)
		}
	}
}

// TestParallelPredictErrorsOnBadInput: a multi-tile estimator reports a
// wrong-width input as an error, not a panic.
func TestParallelPredictErrorsOnBadInput(t *testing.T) {
	net := testNet(t, 0.9)
	mc, err := New(net, 2*nn.SampleTile+3, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mc.Predict(tensor.Vector{1}); err == nil {
		t.Error("expected error for wrong input dim")
	}
}

func TestConcurrentPredict(t *testing.T) {
	net := testNet(t, 0.8)
	mc, err := New(net, 5, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.Vector{1, 2, 3, 4}
	done := make(chan error, 4)
	for w := 0; w < 4; w++ {
		go func() {
			for i := 0; i < 25; i++ {
				if _, err := mc.Predict(x); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for w := 0; w < 4; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

package proptest

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/apdeepsense/apdeepsense/internal/conv"
	"github.com/apdeepsense/apdeepsense/internal/core"
	"github.com/apdeepsense/apdeepsense/internal/mcdrop"
	"github.com/apdeepsense/apdeepsense/internal/nn"
	"github.com/apdeepsense/apdeepsense/internal/rnn"
	"github.com/apdeepsense/apdeepsense/internal/stats"
	"github.com/apdeepsense/apdeepsense/internal/tensor"
)

// The MC conformance bounds mirror the PR 2 dense suite in
// internal/core/conformance_test.go: sampling error of the MC moments at
// k = 20000 plus the documented covariance-dropping / re-Gaussianization
// bias, scaled by the number of approximating stages.
const (
	mcK          = 20000
	mcZBound     = 4.0
	mcMeanFrac   = 0.15
	mcMeanAbs    = 0.02
	mcVarRelStep = 0.30
)

// mcCompare checks closed-form moments against an MC estimate under the
// shared tolerance model. stages is the number of moment-matching stages the
// variance bias compounds across (hidden dense layers, conv layers, RNN
// steps).
func mcCompare(t *testing.T, label string, got, mc core.GaussianVec, stages int) {
	t.Helper()
	for j := range got.Mean {
		mcStd := math.Sqrt(mc.Var[j])
		meanTol := mcZBound*mcStd/math.Sqrt(mcK) + mcMeanFrac*mcStd + mcMeanAbs
		if d := math.Abs(got.Mean[j] - mc.Mean[j]); d > meanTol {
			t.Errorf("%s out %d: mean %.6g vs MC %.6g (|Δ|=%.3g > tol %.3g)",
				label, j, got.Mean[j], mc.Mean[j], d, meanTol)
		}
		varTol := mcVarRelStep*float64(stages) + mcZBound*math.Sqrt(2/float64(mcK-1))
		if rel := math.Abs(got.Var[j]-mc.Var[j]) / mc.Var[j]; rel > varTol {
			t.Errorf("%s out %d: var %.6g vs MC %.6g (rel %.3g > tol %.3g)",
				label, j, got.Var[j], mc.Var[j], rel, varTol)
		}
	}
}

// TestMCConformanceExactDense pins the exact rectifier backend (forced, not
// just defaulted) against the MCDrop sampling estimator on dense ReLU and
// leaky-ReLU networks. keep = 1 collapses to a point mass at the
// deterministic forward pass — rectifiers are piecewise linear, so the mean
// must match to float precision and the variance must vanish.
func TestMCConformanceExactDense(t *testing.T) {
	var seed int64 = 900
	for _, act := range []nn.Activation{nn.ActReLU, nn.ActLeakyReLU} {
		for _, keep := range []float64{0.8, 1.0} {
			seed++
			name := fmt.Sprintf("%v/keep=%.1f", act, keep)
			t.Run(name, func(t *testing.T) {
				net, err := nn.New(nn.Config{
					InputDim: 4, Hidden: []int{32, 24}, OutputDim: 2,
					Activation: act, OutputActivation: nn.ActIdentity,
					KeepProb: keep, Seed: seed,
				})
				if err != nil {
					t.Fatal(err)
				}
				ap, err := core.NewApDeepSense(net, core.Options{}, 0)
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(seed * 31))
				x := make(tensor.Vector, net.InputDim())
				for i := range x {
					x[i] = rng.NormFloat64()
				}
				got, err := ap.Predict(x)
				if err != nil {
					t.Fatal(err)
				}
				if keep == 1 {
					want, err := net.Forward(x)
					if err != nil {
						t.Fatal(err)
					}
					for j := range got.Mean {
						if d := math.Abs(got.Mean[j] - want[j]); d > 1e-9 {
							t.Errorf("out %d: mean %.6g vs forward %.6g", j, got.Mean[j], want[j])
						}
						if got.Var[j] > 1e-15 {
							t.Errorf("out %d: var %.3g, want 0 without dropout", j, got.Var[j])
						}
					}
					return
				}
				mc, err := mcdrop.New(net, mcK, 0, seed*17)
				if err != nil {
					t.Fatal(err)
				}
				want, err := mc.Predict(x)
				if err != nil {
					t.Fatal(err)
				}
				mcCompare(t, name, got, want, 2)
			})
		}
	}
}

// TestMCConformanceConv pins the conv moment recursion (exact rectifier
// backend on the conv layers) against a 20000-pass sampled forward of the
// same network. keep = 1 is the point-mass anchor.
func TestMCConformanceConv(t *testing.T) {
	for _, keep := range []float64{0.8, 1.0} {
		t.Run(fmt.Sprintf("keep=%.1f", keep), func(t *testing.T) {
			rng := rand.New(rand.NewSource(811))
			c1, err := conv.NewConv1D(3, 2, 12, 1, nn.ActReLU, keep, rng)
			if err != nil {
				t.Fatal(err)
			}
			c2, err := conv.NewConv1D(3, 12, 16, 2, nn.ActLeakyReLU, keep, rng)
			if err != nil {
				t.Fatal(err)
			}
			head, err := nn.New(nn.Config{
				InputDim: 16, Hidden: []int{24}, OutputDim: 2,
				Activation: nn.ActReLU, OutputActivation: nn.ActIdentity,
				KeepProb: keep, Seed: 813,
			})
			if err != nil {
				t.Fatal(err)
			}
			net, err := conv.NewNet([]*conv.Conv1D{c1, c2}, head)
			if err != nil {
				t.Fatal(err)
			}
			const steps = 16
			x := conv.NewSeq(steps, 2)
			for i := range x.Data {
				x.Data[i] = rng.NormFloat64()
			}
			got, err := net.PropagateMoments(x)
			if err != nil {
				t.Fatal(err)
			}
			if keep == 1 {
				want, err := net.Forward(x)
				if err != nil {
					t.Fatal(err)
				}
				for j := range got.Mean {
					if d := math.Abs(got.Mean[j] - want[j]); d > 1e-9 {
						t.Errorf("out %d: mean %.6g vs forward %.6g", j, got.Mean[j], want[j])
					}
					if got.Var[j] > 1e-15 {
						t.Errorf("out %d: var %.3g, want 0 without dropout", j, got.Var[j])
					}
				}
				return
			}
			acc := stats.NewVecWelford(len(got.Mean))
			mcRng := rand.New(rand.NewSource(821))
			for s := 0; s < mcK; s++ {
				y, err := net.ForwardSample(x, mcRng)
				if err != nil {
					t.Fatal(err)
				}
				acc.Add(y)
			}
			mc := core.GaussianVec{Mean: acc.Mean(), Var: acc.SampleVariance()}
			// 2 conv stages + 1 hidden dense stage.
			mcCompare(t, "conv", got, mc, 3)
		})
	}
}

// TestMCConformanceGRU pins the GRU gate/product moment recursion against a
// sampled forward. The per-step mask, gate moment matching, and the
// independence assumption in the elementwise products each contribute bias,
// so the variance allowance compounds over the sequence length.
func TestMCConformanceGRU(t *testing.T) {
	for _, keep := range []float64{0.85, 1.0} {
		t.Run(fmt.Sprintf("keep=%.2f", keep), func(t *testing.T) {
			rng := rand.New(rand.NewSource(831))
			g, err := rnn.NewGRU(3, 16, 2, keep, rng)
			if err != nil {
				t.Fatal(err)
			}
			const steps = 6
			xs := make([]tensor.Vector, steps)
			for ti := range xs {
				xs[ti] = make(tensor.Vector, 3)
				for i := range xs[ti] {
					xs[ti][i] = rng.NormFloat64()
				}
			}
			got, err := g.PropagateMoments(xs)
			if err != nil {
				t.Fatal(err)
			}
			if keep == 1 {
				want, err := g.Forward(xs)
				if err != nil {
					t.Fatal(err)
				}
				// The recurrence is tanh/sigmoid: with no dropout the state
				// is deterministic, but means go through the 7-piece PWL
				// fits, so the anchor is loose on the mean and exact on the
				// (zero) variance.
				for j := range got.Mean {
					if d := math.Abs(got.Mean[j] - want[j]); d > 0.1 {
						t.Errorf("out %d: mean %.6g vs forward %.6g", j, got.Mean[j], want[j])
					}
					if got.Var[j] > 1e-15 {
						t.Errorf("out %d: var %.3g, want 0 without dropout", j, got.Var[j])
					}
				}
				return
			}
			acc := stats.NewVecWelford(len(got.Mean))
			mcRng := rand.New(rand.NewSource(841))
			for s := 0; s < mcK; s++ {
				y, err := g.ForwardSample(xs, mcRng)
				if err != nil {
					t.Fatal(err)
				}
				acc.Add(y)
			}
			mc := core.GaussianVec{Mean: acc.Mean(), Var: acc.SampleVariance()}
			mcCompare(t, "gru", got, mc, steps)
		})
	}
}

package proptest

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"testing"

	"github.com/apdeepsense/apdeepsense/internal/core"
	"github.com/apdeepsense/apdeepsense/internal/nn"
	"github.com/apdeepsense/apdeepsense/internal/oracle"
	"github.com/apdeepsense/apdeepsense/internal/serve"
	"github.com/apdeepsense/apdeepsense/internal/tensor"
)

// conformanceTable pins the deterministic network shapes every path is
// checked on: each hidden activation, single-layer and deep stacks, a
// wide layer hitting full kernel tiles, dropout on and off (including input
// dropout), and non-identity output activations.
var conformanceTable = []struct {
	name string
	cfg  nn.Config
}{
	{"relu-deep", nn.Config{InputDim: 16, Hidden: []int{32, 24, 17, 9}, OutputDim: 8,
		Activation: nn.ActReLU, OutputActivation: nn.ActIdentity, KeepProb: 0.8, Seed: 11}},
	{"relu-single", nn.Config{InputDim: 5, OutputDim: 3,
		Activation: nn.ActReLU, OutputActivation: nn.ActIdentity, KeepProb: 1, Seed: 12}},
	{"tanh-mid", nn.Config{InputDim: 12, Hidden: []int{20, 20}, OutputDim: 6,
		Activation: nn.ActTanh, OutputActivation: nn.ActIdentity, KeepProb: 0.5, DropInput: true, Seed: 13}},
	{"tanh-out-sigmoid", nn.Config{InputDim: 7, Hidden: []int{13}, OutputDim: 4,
		Activation: nn.ActTanh, OutputActivation: nn.ActSigmoid, KeepProb: 0.9, Seed: 14}},
	{"sigmoid-wide", nn.Config{InputDim: 24, Hidden: []int{300}, OutputDim: 10,
		Activation: nn.ActSigmoid, OutputActivation: nn.ActIdentity, KeepProb: 0.7, Seed: 15}},
	{"sigmoid-nodrop", nn.Config{InputDim: 9, Hidden: []int{11, 11, 11}, OutputDim: 2,
		Activation: nn.ActSigmoid, OutputActivation: nn.ActTanh, KeepProb: 1, Seed: 16}},
}

type fixture struct {
	net    *nn.Network
	prop   *core.Propagator
	ref    *oracle.Ref
	inputs []tensor.Vector
	wants  []core.GaussianVec  // oracle Forward per input
	conds  []oracle.CondBudget // conditioning budget per input
}

func buildFixture(t *testing.T, cfg nn.Config) *fixture {
	t.Helper()
	net, err := nn.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	prop, err := core.NewPropagator(net, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := oracle.NewRef(net, core.Options{}, false)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(cfg.Seed * 7919))
	fx := &fixture{net: net, prop: prop, ref: ref}
	for k := 0; k < 5; k++ {
		x := GenInput(rng, net.InputDim())
		want, cond, err := ref.ForwardCond(x)
		if err != nil {
			t.Fatal(err)
		}
		fx.inputs = append(fx.inputs, x)
		fx.wants = append(fx.wants, want)
		fx.conds = append(fx.conds, cond)
	}
	return fx
}

// TestPropagateVsOracle is the central differential check: the per-sample
// fast path agrees with the quadrature oracle within RelTight on every table
// entry, and the estimator's Predict (obsVar = 0) adds nothing on top.
func TestPropagateVsOracle(t *testing.T) {
	for _, tc := range conformanceTable {
		t.Run(tc.name, func(t *testing.T) {
			fx := buildFixture(t, tc.cfg)
			for k, x := range fx.inputs {
				got, err := fx.prop.Propagate(x)
				if err != nil {
					t.Fatal(err)
				}
				if err := CompareVec(got, fx.wants[k], RelTight, fx.conds[k]); err != nil {
					t.Errorf("input %d: Propagate vs oracle: %v", k, err)
				}
			}
		})
	}
}

// TestBatchVsOracleAndSequential checks the blocked batch path both ways:
// bit-identical to the sequential path (its documented contract) and within
// RelTight of the oracle (implied, but checked directly so a joint drift of
// both fast paths cannot hide).
func TestBatchVsOracleAndSequential(t *testing.T) {
	for _, tc := range conformanceTable {
		t.Run(tc.name, func(t *testing.T) {
			fx := buildFixture(t, tc.cfg)
			gb, err := fx.prop.PropagateBatch(fx.inputs)
			if err != nil {
				t.Fatal(err)
			}
			for k := range fx.inputs {
				seq, err := fx.prop.Propagate(fx.inputs[k])
				if err != nil {
					t.Fatal(err)
				}
				if err := CompareBits(gb.Row(k), seq); err != nil {
					t.Errorf("row %d: batch vs sequential: %v", k, err)
				}
				if err := CompareVec(gb.Row(k), fx.wants[k], RelTight, fx.conds[k]); err != nil {
					t.Errorf("row %d: batch vs oracle: %v", k, err)
				}
			}
		})
	}
}

// TestWorkersBitIdentical checks that the worker fan-out never changes bits:
// forced single-threaded, a worker pool, and more workers than rows all
// reproduce the default batch result exactly.
func TestWorkersBitIdentical(t *testing.T) {
	for _, tc := range conformanceTable {
		t.Run(tc.name, func(t *testing.T) {
			fx := buildFixture(t, tc.cfg)
			base, err := fx.prop.PropagateBatch(fx.inputs)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 3, 64} {
				pw, err := core.NewPropagator(fx.net, core.Options{}, core.WithWorkers(workers))
				if err != nil {
					t.Fatal(err)
				}
				gb, err := pw.PropagateBatch(fx.inputs)
				if err != nil {
					t.Fatal(err)
				}
				for k := range fx.inputs {
					if err := CompareBits(gb.Row(k), base.Row(k)); err != nil {
						t.Errorf("workers=%d row %d: %v", workers, k, err)
					}
				}
			}
		})
	}
}

// TestCoalescerVsOracle drives concurrent single requests through the
// serving coalescer (small MaxBatch so requests genuinely coalesce into
// shared flushes) and checks every response bit-identical to a direct
// Predict call and within RelTight of the oracle.
func TestCoalescerVsOracle(t *testing.T) {
	for _, tc := range conformanceTable {
		t.Run(tc.name, func(t *testing.T) {
			fx := buildFixture(t, tc.cfg)
			est, err := core.NewApDeepSense(fx.net, core.Options{}, 0)
			if err != nil {
				t.Fatal(err)
			}
			col, err := serve.NewPredict(est, serve.Config{MaxBatch: 2})
			if err != nil {
				t.Fatal(err)
			}
			defer col.Close(context.Background())

			got := make([]core.GaussianVec, len(fx.inputs))
			errs := make([]error, len(fx.inputs))
			var wg sync.WaitGroup
			for k := range fx.inputs {
				wg.Add(1)
				go func(k int) {
					defer wg.Done()
					got[k], errs[k] = col.Do(context.Background(), fx.inputs[k])
				}(k)
			}
			wg.Wait()
			for k := range fx.inputs {
				if errs[k] != nil {
					t.Fatal(errs[k])
				}
				direct, err := est.Predict(fx.inputs[k])
				if err != nil {
					t.Fatal(err)
				}
				if err := CompareBits(got[k], direct); err != nil {
					t.Errorf("request %d: coalescer vs direct Predict: %v", k, err)
				}
				if err := CompareVec(got[k], fx.wants[k], RelTight, fx.conds[k]); err != nil {
					t.Errorf("request %d: coalescer vs oracle: %v", k, err)
				}
			}
		})
	}
}

// TestGaussianInputsVsOracle covers the PropagateFrom path on a fixed grid
// of degenerate and extreme input distributions — exact point masses,
// variances below and just above the SigmaFloor cutoff, and very wide
// spreads — plus random Gaussian inputs from the generator.
func TestGaussianInputsVsOracle(t *testing.T) {
	for _, tc := range conformanceTable {
		t.Run(tc.name, func(t *testing.T) {
			fx := buildFixture(t, tc.cfg)
			dim := fx.net.InputDim()
			var cases []core.GaussianVec
			for _, v := range []float64{0, 1e-30, 1e-18, 1, 1e8} {
				for _, mu := range []float64{0, -3, 1e6} {
					g := core.NewGaussianVec(dim)
					for i := 0; i < dim; i++ {
						g.Mean[i] = mu
						g.Var[i] = v
					}
					cases = append(cases, g)
				}
			}
			rng := rand.New(rand.NewSource(tc.cfg.Seed * 104729))
			for k := 0; k < 4; k++ {
				cases = append(cases, GenGaussian(rng, dim))
			}
			for k, g := range cases {
				got, err := fx.prop.PropagateFrom(g.Clone())
				if err != nil {
					t.Fatal(err)
				}
				want, cond, err := fx.ref.ForwardFromCond(g)
				if err != nil {
					t.Fatal(err)
				}
				if err := CompareVec(got, want, RelTight, cond); err != nil {
					t.Errorf("case %d: PropagateFrom vs oracle: %v", k, err)
				}
			}
		})
	}
}

// TestModelErrorWithinBudget is the second-tier contract: for bounded-hidden
// (tanh/sigmoid) networks, the distance between the fast path and the
// exact-activation reference must stay within the a-priori error budget
// derived from the measured PWL sup-norm fit errors — plus RelTight slack
// for the quadrature itself.
func TestModelErrorWithinBudget(t *testing.T) {
	for _, tc := range conformanceTable {
		if tc.cfg.Activation == nn.ActReLU {
			continue // exactly PWL: tier one already demands 1e-9 agreement
		}
		t.Run(tc.name, func(t *testing.T) {
			fx := buildFixture(t, tc.cfg)
			budget, err := fx.ref.ErrorBudget()
			if err != nil {
				t.Fatal(err)
			}
			if budget.Mean <= 0 || budget.Var <= 0 {
				t.Fatalf("degenerate budget %+v", budget)
			}
			for k, x := range fx.inputs {
				got, err := fx.prop.Propagate(x)
				if err != nil {
					t.Fatal(err)
				}
				exact, err := fx.ref.ForwardTrue(x)
				if err != nil {
					t.Fatal(err)
				}
				for i := range exact.Mean {
					slack := RelTight * math.Max(1, math.Abs(exact.Mean[i]))
					if d := math.Abs(got.Mean[i] - exact.Mean[i]); d > budget.Mean+slack {
						t.Errorf("input %d mean[%d]: |fast−true| = %v exceeds budget %v", k, i, d, budget.Mean)
					}
					slack = RelTight * math.Max(1, exact.Var[i])
					if d := math.Abs(got.Var[i] - exact.Var[i]); d > budget.Var+slack {
						t.Errorf("input %d var[%d]: |fast−true| = %v exceeds budget %v", k, i, d, budget.Var)
					}
				}
			}
		})
	}
}

// TestKahanConsistency bounds how much plain ascending summation can move
// the oracle: the compensated and uncompensated reference passes must agree
// within RelKahan, keeping rounding noise far inside the differential
// contract so disagreements point at kernels, not at summation order.
func TestKahanConsistency(t *testing.T) {
	for _, tc := range conformanceTable {
		t.Run(tc.name, func(t *testing.T) {
			fx := buildFixture(t, tc.cfg)
			kahan, err := oracle.NewRef(fx.net, core.Options{}, true)
			if err != nil {
				t.Fatal(err)
			}
			for k, x := range fx.inputs {
				want, cond, err := kahan.ForwardCond(x)
				if err != nil {
					t.Fatal(err)
				}
				if err := CompareVec(fx.wants[k], want, RelKahan, cond); err != nil {
					t.Errorf("input %d: plain vs Kahan oracle: %v", k, err)
				}
			}
		})
	}
}

// TestRandomNetworksVsOracle is the deterministic property sweep over the
// full generator space (depth 1–6, widths up to 300, all activations,
// dropout corners): every drawn network must satisfy the RelTight contract
// on Propagate and the bit-identity contract on PropagateBatch.
func TestRandomNetworksVsOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("random-network sweep skipped in -short mode")
	}
	rng := rand.New(rand.NewSource(20260806))
	for n := 0; n < 20; n++ {
		net := GenNetwork(rng)
		prop, err := core.NewPropagator(net, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		ref, err := oracle.NewRef(net, core.Options{}, false)
		if err != nil {
			t.Fatal(err)
		}
		xs := []tensor.Vector{GenInput(rng, net.InputDim()), GenInput(rng, net.InputDim())}
		gb, err := prop.PropagateBatch(xs)
		if err != nil {
			t.Fatal(err)
		}
		for k, x := range xs {
			got, err := prop.Propagate(x)
			if err != nil {
				t.Fatal(err)
			}
			want, cond, err := ref.ForwardCond(x)
			if err != nil {
				t.Fatal(err)
			}
			if err := CompareVec(got, want, RelTight, cond); err != nil {
				t.Errorf("net %d input %d: %s: Propagate vs oracle: %v", n, k, net.Summary(), err)
			}
			if err := CompareBits(gb.Row(k), got); err != nil {
				t.Errorf("net %d input %d: %s: batch vs sequential: %v", n, k, net.Summary(), err)
			}
		}
	}
}

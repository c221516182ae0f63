package core

import (
	"math"
	"math/rand"
	"testing"

	"github.com/apdeepsense/apdeepsense/internal/nn"
	"github.com/apdeepsense/apdeepsense/internal/stats"
	"github.com/apdeepsense/apdeepsense/internal/tensor"
)

// TestExactKernelDispatch pins the exact kernels' dispatch contract: above
// the shared SigmaFloor point-mass shortcut the kernel's output is
// bit-identical to the stats closed forms; below it, to f.Eval — for both
// ReLU and leaky-ReLU, on every layer the propagator resolves to exact.
func TestExactKernelDispatch(t *testing.T) {
	for _, act := range []nn.Activation{nn.ActReLU, nn.ActLeakyReLU} {
		net := buildTestNet(t, act, 0.8, 11)
		prop, err := NewPropagator(net, Options{})
		if err != nil {
			t.Fatal(err)
		}
		alpha, _ := act.Rectifier()
		var sawExact bool
		bounds := make([]stats.Boundary, prop.maxBounds)
		pms := make([]stats.PartialMoments, prop.maxBounds)
		rng := rand.New(rand.NewSource(4))
		for li, l := range net.Layers() {
			_, rect := l.Act.Rectifier()
			if prop.kernels[li].Exact() != rect {
				t.Fatalf("layer %d (%v): exact = %v, want %v", li, l.Act, prop.kernels[li].Exact(), rect)
			}
			if !rect {
				continue
			}
			sawExact = true
			ak := prop.kernels[li]
			check := func(mu, variance float64) {
				t.Helper()
				gotM, gotV := ak.Moments(mu, variance, bounds, pms)
				sigma := math.Sqrt(variance)
				var wantM, wantV float64
				if sigma <= SigmaFloor*(1+math.Abs(mu)) {
					wantM, wantV = prop.acts[li].Eval(mu), 0
				} else if alpha == 0 {
					wantM, wantV = stats.RectifiedMoments(mu, sigma)
				} else {
					wantM, wantV = stats.LeakyRectifiedMoments(mu, sigma, alpha)
				}
				if math.Float64bits(gotM) != math.Float64bits(wantM) || math.Float64bits(gotV) != math.Float64bits(wantV) {
					t.Fatalf("layer %d mu=%v var=%v: kernel (%v,%v), want (%v,%v)", li, mu, variance, gotM, gotV, wantM, wantV)
				}
			}
			for _, cs := range [][2]float64{{0, 0}, {2.5, 0}, {-1, 1e-30}, {0.3, 1e-12}, {40, 9}, {-40, 9}, {1e6, 1}, {-1e6, 1}} {
				check(cs[0], cs[1])
			}
			for trial := 0; trial < 200; trial++ {
				check(rng.NormFloat64()*4, rng.Float64()*6)
			}
		}
		if !sawExact {
			t.Fatal("no exact layer resolved")
		}
	}
}

// TestExactBackendBitIdenticalAcrossEntryPoints: with the exact backend on
// (the rectifier default), the per-sample, batched-interpreted, and
// batched-reference paths must produce Float64bits-identical outputs — the
// dispatch lives inside the shared kernel, not in any one path.
func TestExactBackendBitIdenticalAcrossEntryPoints(t *testing.T) {
	for _, act := range []nn.Activation{nn.ActReLU, nn.ActLeakyReLU} {
		net := buildTestNet(t, act, 0.85, 6)
		prop, err := NewPropagator(net, Options{})
		if err != nil {
			t.Fatal(err)
		}
		inputs := batchInputs(9, net.InputDim(), 8)
		gb, err := prop.PropagateBatch(inputs)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := prop.PropagateBatchReference(gb2From(inputs, net.InputDim(), t))
		if err != nil {
			t.Fatal(err)
		}
		for i, x := range inputs {
			g, err := prop.Propagate(x)
			if err != nil {
				t.Fatal(err)
			}
			for j := range g.Mean {
				if math.Float64bits(g.Mean[j]) != math.Float64bits(gb.Row(i).Mean[j]) ||
					math.Float64bits(g.Var[j]) != math.Float64bits(gb.Row(i).Var[j]) {
					t.Fatalf("%v sample %d out %d: per-sample (%v,%v) != batch (%v,%v)",
						act, i, j, g.Mean[j], g.Var[j], gb.Row(i).Mean[j], gb.Row(i).Var[j])
				}
				if math.Float64bits(ref.Row(i).Mean[j]) != math.Float64bits(gb.Row(i).Mean[j]) {
					t.Fatalf("%v sample %d out %d: reference differs from batch", act, i, j)
				}
			}
		}
	}
}

func gb2From(xs []tensor.Vector, dim int, t *testing.T) GaussianBatch {
	t.Helper()
	gb, err := DeterministicBatch(xs, dim)
	if err != nil {
		t.Fatal(err)
	}
	return gb
}

// TestReLUMomentsCrossCheck: the pre-existing ReLUMoments helper (the naive
// E[y²]−E[y]² form with clamp) and the new stable closed form agree in the
// benign regime — two independently derived implementations of the same
// integral.
func TestReLUMomentsCrossCheck(t *testing.T) {
	for _, mu := range []float64{-3, -1, -0.2, 0, 0.2, 1, 3} {
		for _, sigma := range []float64{0.1, 1, 5} {
			m1, v1 := ReLUMoments(mu, sigma*sigma)
			m2, v2 := stats.RectifiedMoments(mu, sigma)
			if d := math.Abs(m1 - m2); d > 1e-12*(1+math.Abs(m1)) {
				t.Errorf("mean mismatch at mu=%v sigma=%v: %v vs %v", mu, sigma, m1, m2)
			}
			if d := math.Abs(v1 - v2); d > 1e-11*(1+v1) {
				t.Errorf("var mismatch at mu=%v sigma=%v: %v vs %v", mu, sigma, v1, v2)
			}
		}
	}
}

package core

import (
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"github.com/apdeepsense/apdeepsense/internal/nn"
	"github.com/apdeepsense/apdeepsense/internal/piecewise"
	"github.com/apdeepsense/apdeepsense/internal/stats"
	"github.com/apdeepsense/apdeepsense/internal/tensor"
)

// batchInputs builds a deterministic spread of test vectors.
func batchInputs(n, dim int, seed int64) []tensor.Vector {
	rng := rand.New(rand.NewSource(seed))
	out := make([]tensor.Vector, n)
	for i := range out {
		v := make(tensor.Vector, dim)
		for j := range v {
			v[j] = rng.NormFloat64() * 2
		}
		out[i] = v
	}
	return out
}

// TestPropagateBatchParity is the batch-vs-sequential contract: PropagateBatch
// over a seeded ReLU network and a seeded tanh network must match per-sample
// Propagate within 1e-12 on every output moment, across batch sizes that
// exercise the 4-row blocking remainder and the row-chunk fan-out.
func TestPropagateBatchParity(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)

	for _, act := range []nn.Activation{nn.ActReLU, nn.ActTanh, nn.ActSigmoid} {
		net := buildTestNet(t, act, 0.85, 5)
		prop, err := NewPropagator(net, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range []int{1, 3, 4, 17, 64} {
			inputs := batchInputs(b, net.InputDim(), int64(b))
			gb, err := prop.PropagateBatch(inputs)
			if err != nil {
				t.Fatalf("act=%v b=%d: %v", act, b, err)
			}
			if gb.Batch() != b || gb.Dim() != net.OutputDim() {
				t.Fatalf("act=%v b=%d: batch shape %dx%d", act, b, gb.Batch(), gb.Dim())
			}
			for i, x := range inputs {
				want, err := prop.Propagate(x)
				if err != nil {
					t.Fatal(err)
				}
				got := gb.Row(i)
				if !got.Mean.Equal(want.Mean, 1e-12) || !got.Var.Equal(want.Var, 1e-12) {
					t.Errorf("act=%v b=%d input %d: batch %v/%v vs sequential %v/%v",
						act, b, i, got.Mean, got.Var, want.Mean, want.Var)
				}
			}
		}
	}
}

// TestPropagateBatchWithWorkers pins the WithWorkers contract: the batch path
// is bit-identical regardless of the worker bound (rows are independent), and
// the configured bound is reported by Workers().
func TestPropagateBatchWithWorkers(t *testing.T) {
	net := buildTestNet(t, nn.ActTanh, 0.85, 11)
	inputs := batchInputs(33, net.InputDim(), 13)

	base, err := NewPropagator(net, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if base.Workers() != 0 {
		t.Errorf("default Workers = %d, want 0 (GOMAXPROCS)", base.Workers())
	}
	want, err := base.PropagateBatch(inputs)
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 2, 3, 8} {
		prop, err := NewPropagator(net, Options{}, WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		if prop.Workers() != workers {
			t.Errorf("Workers() = %d, want %d", prop.Workers(), workers)
		}
		got, err := prop.PropagateBatch(inputs)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := 0; i < got.Batch(); i++ {
			g, w := got.Row(i), want.Row(i)
			if !g.Mean.Equal(w.Mean, 0) || !g.Var.Equal(w.Var, 0) {
				t.Errorf("workers=%d row %d: not bit-identical to default", workers, i)
			}
		}
	}

	// The estimator constructor forwards trailing options.
	est, err := NewApDeepSense(net, Options{}, 0, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	if est.Propagator().Workers() != 1 {
		t.Errorf("NewApDeepSense did not forward WithWorkers: %d", est.Propagator().Workers())
	}
}

// TestPropagateBatchFromParity checks the Gaussian-input entry point against
// per-sample PropagateFrom, and that the input batch is left untouched.
func TestPropagateBatchFromParity(t *testing.T) {
	net := buildTestNet(t, nn.ActTanh, 0.9, 3)
	prop, err := NewPropagator(net, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const b = 11
	in := NewGaussianBatch(b, net.InputDim())
	rng := rand.New(rand.NewSource(9))
	for i := range in.Mean.Data {
		in.Mean.Data[i] = rng.NormFloat64()
		in.Var.Data[i] = rng.Float64()
	}
	pristine := in.Clone()

	gb, err := prop.PropagateBatchFrom(in)
	if err != nil {
		t.Fatal(err)
	}
	if !in.Mean.Equal(pristine.Mean, 0) || !in.Var.Equal(pristine.Var, 0) {
		t.Error("PropagateBatchFrom mutated its input batch")
	}
	for i := 0; i < b; i++ {
		want, err := prop.PropagateFrom(in.Row(i))
		if err != nil {
			t.Fatal(err)
		}
		got := gb.Row(i)
		if !got.Mean.Equal(want.Mean, 1e-12) || !got.Var.Equal(want.Var, 1e-12) {
			t.Errorf("input %d: batch result differs from PropagateFrom", i)
		}
	}
}

func TestPropagateBatchErrors(t *testing.T) {
	net := buildTestNet(t, nn.ActReLU, 1, 1)
	prop, err := NewPropagator(net, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Wrong dimension on one input: ErrInput with the offending index.
	inputs := batchInputs(3, net.InputDim(), 1)
	inputs[1] = tensor.Vector{1}
	if _, err := prop.PropagateBatch(inputs); !errors.Is(err, ErrInput) {
		t.Errorf("bad-dim err = %v, want ErrInput", err)
	}
	// Wrong batch dimension for the Gaussian entry point.
	if _, err := prop.PropagateBatchFrom(NewGaussianBatch(2, net.InputDim()+1)); !errors.Is(err, ErrInput) {
		t.Errorf("bad-batch err = %v, want ErrInput", err)
	}
	// Empty batch is a valid no-op.
	gb, err := prop.PropagateBatch(nil)
	if err != nil {
		t.Fatal(err)
	}
	if gb.Batch() != 0 {
		t.Errorf("empty batch returned %d rows", gb.Batch())
	}
}

// TestActivationKernelExact pins the batched activation kernel to the scalar
// reference bit for bit: sharing truncated-moment boundary terms between
// adjacent pieces must not change a single output, including the point-mass
// fast path and near-zero variances.
func TestActivationKernelExact(t *testing.T) {
	// The PWL kernels of every activation, built directly: the propagator
	// serves rectifiers through the exact backend (pinned to its own closed
	// form in exact_test.go), so the 2-piece PWL ReLU and leaky-ReLU kernels
	// are only reachable here.
	tanh, err := piecewise.Tanh(7)
	if err != nil {
		t.Fatal(err)
	}
	sigmoid, err := piecewise.Sigmoid(7)
	if err != nil {
		t.Fatal(err)
	}
	funcs := []*piecewise.Func{tanh, piecewise.ReLU(), piecewise.LeakyReLU(nn.LeakyAlpha), sigmoid, piecewise.Identity()}
	rng := rand.New(rand.NewSource(3))
	for fi, f := range funcs {
		ak := NewActKernel(f)
		bounds := make([]stats.Boundary, f.NumPieces()+1)
		pms := make([]stats.PartialMoments, f.NumPieces()+1)
		check := func(mu, variance float64) {
			t.Helper()
			wantM, wantV := ActivationMoments(mu, variance, f)
			gotM, gotV := ak.Moments(mu, variance, bounds, pms)
			if gotM != wantM || gotV != wantV {
				t.Fatalf("func %d mu=%v var=%v: kernel (%v, %v) != reference (%v, %v)",
					fi, mu, variance, gotM, gotV, wantM, wantV)
			}
		}
		for _, cs := range [][2]float64{{0, 0}, {2.5, 0}, {-1, 1e-30}, {0.3, 1e-12}, {40, 9}, {-40, 9}} {
			check(cs[0], cs[1])
		}
		for trial := 0; trial < 300; trial++ {
			check(rng.NormFloat64()*4, rng.Float64()*6)
		}
	}
}

// TestPredictBatchConcurrent hammers the pooled scratch buffers from many
// goroutines (run under -race via make check): every concurrent batch must
// reproduce the sequential results exactly.
func TestPredictBatchConcurrent(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)

	net := buildTestNet(t, nn.ActTanh, 0.85, 8)
	est, err := NewApDeepSense(net, Options{}, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	inputs := batchInputs(33, net.InputDim(), 4)
	want := make([]GaussianVec, len(inputs))
	for i, x := range inputs {
		if want[i], err = est.Predict(x); err != nil {
			t.Fatal(err)
		}
	}

	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for gr := 0; gr < goroutines; gr++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 5; rep++ {
				got, err := est.PredictBatch(inputs)
				if err != nil {
					errs <- err
					return
				}
				for i := range got {
					if !got[i].Mean.Equal(want[i].Mean, 0) || !got[i].Var.Equal(want[i].Var, 0) {
						t.Errorf("concurrent batch input %d: mismatch", i)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestPredictProbsBatchFastPath checks the batched classification path
// against per-sample PredictProbs.
func TestPredictProbsBatchFastPath(t *testing.T) {
	net := buildTestNet(t, nn.ActReLU, 0.9, 2)
	est, err := NewApDeepSense(net, Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	inputs := batchInputs(7, net.InputDim(), 6)
	got, err := est.PredictProbsBatch(inputs)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range inputs {
		want, err := est.PredictProbs(x)
		if err != nil {
			t.Fatal(err)
		}
		if !got[i].Equal(want, 1e-12) {
			t.Errorf("input %d: batched probs %v != %v", i, got[i], want)
		}
	}
}

// TestGaussianBatchViews pins the Row/Rows view semantics.
func TestGaussianBatchViews(t *testing.T) {
	gb := NewGaussianBatch(2, 3)
	gb.Mean.Set(1, 2, 7)
	if gb.Row(1).Mean[2] != 7 {
		t.Error("Row does not share storage")
	}
	rows := gb.Rows()
	rows[0].Var[0] = 5
	if gb.Var.At(0, 0) != 5 {
		t.Error("Rows does not share storage")
	}
	var zero GaussianBatch
	if zero.Batch() != 0 || zero.Dim() != 0 {
		t.Error("zero GaussianBatch should report empty shape")
	}
}

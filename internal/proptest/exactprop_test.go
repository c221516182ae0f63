package proptest

import (
	"math/rand"
	"testing"

	"github.com/apdeepsense/apdeepsense/internal/compile"
	"github.com/apdeepsense/apdeepsense/internal/core"
	"github.com/apdeepsense/apdeepsense/internal/nn"
	"github.com/apdeepsense/apdeepsense/internal/oracle"
)

// genRectNet draws a small all-rectifier network: exactly the family where
// the exact closed-form backend and the 2-piece PWL backend propagate the
// same mathematical function and differ only in numerical formulation.
func genRectNet(rng *rand.Rand) *nn.Network {
	acts := []nn.Activation{nn.ActReLU, nn.ActLeakyReLU}
	hidden := make([]int, 1+rng.Intn(2))
	for i := range hidden {
		hidden[i] = 1 + rng.Intn(10)
	}
	keep := 0.5 + 0.5*rng.Float64()
	if rng.Intn(4) == 0 {
		keep = 1
	}
	outActs := []nn.Activation{nn.ActIdentity, acts[rng.Intn(2)]}
	net, err := nn.New(nn.Config{
		InputDim:         1 + rng.Intn(6),
		Hidden:           hidden,
		OutputDim:        1 + rng.Intn(4),
		Activation:       acts[rng.Intn(2)],
		OutputActivation: outActs[rng.Intn(2)],
		KeepProb:         keep,
		Seed:             rng.Int63(),
	})
	if err != nil {
		panic("proptest: rectifier net generator: " + err.Error())
	}
	return net
}

// TestExactVsOracleForcedModes holds the activation backend rectifier
// networks are served on — the exact closed form — to the quadrature oracle
// and conditioning budget under the RelTight contract, on both the
// point-mass and the Gaussian entry points.
func TestExactVsOracleForcedModes(t *testing.T) {
	rng := rand.New(rand.NewSource(127))
	for iter := 0; iter < 80; iter++ {
		net := genRectNet(rng)
		x := GenInput(rng, net.InputDim())
		g := GenGaussian(rng, net.InputDim())
		prop, err := core.NewPropagator(net, core.Options{})
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		ref, err := oracle.NewRef(net, core.Options{}, false)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		got, err := prop.Propagate(x)
		if err != nil {
			t.Fatal(err)
		}
		want, cond, err := ref.ForwardCond(x)
		if err != nil {
			t.Fatal(err)
		}
		if finite(want) {
			if err := CompareVec(got, want, RelTight, cond); err != nil {
				t.Errorf("iter %d Propagate: %v", iter, err)
			}
		}
		gotFrom, err := prop.PropagateFrom(g.Clone())
		if err != nil {
			t.Fatal(err)
		}
		wantFrom, condFrom, err := ref.ForwardFromCond(g)
		if err != nil {
			t.Fatal(err)
		}
		if finite(wantFrom) {
			if err := CompareVec(gotFrom, wantFrom, RelTight, condFrom); err != nil {
				t.Errorf("iter %d PropagateFrom: %v", iter, err)
			}
		}
	}
}

// TestExactBitIdenticalAcrossPaths pins the acceptance bit-identity
// contract for the exact backend: interpreted per-sample, interpreted
// batch, and compiled batch must produce identical bits on rectifier nets.
func TestExactBitIdenticalAcrossPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	for iter := 0; iter < 25; iter++ {
		net := genRectNet(rng)
		prop, err := core.NewPropagator(net, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		batch := 1 + rng.Intn(9)
		in := core.NewGaussianBatch(batch, net.InputDim())
		for r := 0; r < batch; r++ {
			g := GenGaussian(rng, net.InputDim())
			copy(in.Mean.Row(r), g.Mean)
			copy(in.Var.Row(r), g.Var)
		}

		ref, err := prop.PropagateBatchReference(in)
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < batch; r++ {
			g := core.GaussianVec{Mean: in.Mean.Row(r), Var: in.Var.Row(r)}
			seq, err := prop.PropagateFrom(g.Clone())
			if err != nil {
				t.Fatal(err)
			}
			if err := CompareBits(ref.Row(r), seq); err != nil {
				t.Errorf("iter %d row %d: batch vs sequential: %v", iter, r, err)
			}
		}

		pg, err := compile.Compile(prop, batch)
		if err != nil {
			t.Fatal(err)
		}
		if err := pg.Warm(prop); err != nil {
			t.Fatal(err)
		}
		prop.SetCompiled(pg)
		compiled, err := prop.PropagateBatchFrom(in)
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < batch; r++ {
			if err := CompareBits(compiled.Row(r), ref.Row(r)); err != nil {
				t.Errorf("iter %d row %d: compiled vs interpreted: %v", iter, r, err)
			}
		}
	}
}

package nn

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"github.com/apdeepsense/apdeepsense/internal/tensor"
)

func passTestNet(t *testing.T) *Network {
	t.Helper()
	net, err := New(Config{
		InputDim: 5, Hidden: []int{70, 33}, OutputDim: 3,
		Activation: ActReLU, OutputActivation: ActIdentity,
		KeepProb: 0.8, DropInput: true, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func sameBits(a, b tensor.Vector) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestSampleTilesMatchForwardSample: k passes run as multi-row tiles are
// bit-identical, pass by pass, to k one-row ForwardSample calls on an
// identically seeded stream, and leave the stream in the same state.
func TestSampleTilesMatchForwardSample(t *testing.T) {
	net := passTestNet(t)
	x := tensor.Vector{0.4, 0, -1.3, 2, 0.7}
	const k = 2*SampleTile + 5
	tiled := rand.New(rand.NewSource(9))
	single := rand.New(rand.NewSource(9))
	pass := 0
	err := net.Sample(x, k, tiled, func(y tensor.Vector) {
		want, err := net.ForwardSample(x, single)
		if err != nil {
			t.Fatal(err)
		}
		if !sameBits(y, want) {
			t.Fatalf("pass %d: tiled %v, one-row %v", pass, y, want)
		}
		pass++
	})
	if err != nil {
		t.Fatal(err)
	}
	if pass != k {
		t.Fatalf("yielded %d passes, want %d", pass, k)
	}
	if tiled.Int63() != single.Int63() {
		t.Error("tiled sampling left the stream in a different state")
	}
}

// TestPassScaledRowsMatchForward: an unmasked B-row Forward is, row by row,
// bit-identical to the one-row deterministic Forward.
func TestPassScaledRowsMatchForward(t *testing.T) {
	net := passTestNet(t)
	rng := rand.New(rand.NewSource(2))
	const rows = 11
	p := net.NewPass(rows)
	xs := make([]tensor.Vector, rows)
	for b := range xs {
		xs[b] = tensor.Vector{rng.NormFloat64(), 0, rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		p.SetRow(b, xs[b])
	}
	out := p.Forward(rows, false)
	for b, x := range xs {
		want, err := net.Forward(x)
		if err != nil {
			t.Fatal(err)
		}
		if !sameBits(out.Row(b), want) {
			t.Errorf("row %d: batched %v, one-row %v", b, out.Row(b), want)
		}
	}
}

// TestSampleRejectsWrongWidth: a wrong-width input is an ErrConfig and
// draws nothing from the stream.
func TestSampleRejectsWrongWidth(t *testing.T) {
	net := passTestNet(t)
	rng := rand.New(rand.NewSource(5))
	err := net.Sample(tensor.Vector{1, 2}, 3, rng, func(tensor.Vector) { t.Fatal("yielded a pass") })
	if !errors.Is(err, ErrConfig) {
		t.Fatalf("err = %v, want ErrConfig", err)
	}
	if rng.Int63() != rand.New(rand.NewSource(5)).Int63() {
		t.Error("rejected input consumed the stream")
	}
}

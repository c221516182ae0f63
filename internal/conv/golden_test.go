package conv

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"

	"github.com/apdeepsense/apdeepsense/internal/tensor"
	"github.com/apdeepsense/apdeepsense/internal/train"
)

// netBits hashes every conv weight and bias bit plus the head's
// fingerprint.
func netBits(n *Net) string {
	h := sha256.New()
	var buf [8]byte
	for _, c := range n.convs {
		for _, xs := range [][]float64{c.W, c.B} {
			for _, x := range xs {
				binary.BigEndian.PutUint64(buf[:], math.Float64bits(x))
				h.Write(buf[:])
			}
		}
	}
	h.Write([]byte(n.head.Fingerprint()))
	return hex.EncodeToString(h.Sum(nil))[:32]
}

// TestTrainGoldenBits pins the exact bits Train produces, recorded from the
// per-sample reference implementation of the dense head, so a change to the
// mask draw order (each sample's head masks right after its channel masks)
// or to the head's accumulation order shows up as a different hash.
func TestTrainGoldenBits(t *testing.T) {
	cases := []struct {
		name  string
		keep  float64
		loss  train.Loss
		batch int
		n     int
		want  string
	}{
		{"keep0.8-mse-ragged", 0.8, train.MSE{}, 5, 23, "35a2c3e51fa62a28efa3024a004d5d0c"},
		{"keep0.7-xent", 0.7, train.SoftmaxCrossEntropy{}, 4, 16, "9295385abe6d49b6cf2eed6dcfba2623"},
		{"keep1-mse", 1, train.MSE{}, 6, 18, "531b39e17d742904f1986a5d1761a007"},
		{"keep0.8-batch1", 0.8, train.MSE{}, 1, 9, "77506549a44d71254dc7841c24398e82"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			net := buildTestNet(t, c.keep, 21)
			rng := rand.New(rand.NewSource(6))
			data := make([]Sample, c.n)
			for i := range data {
				x := NewSeq(12, 2)
				for j := range x.Data {
					x.Data[j] = rng.NormFloat64()
				}
				y := tensor.Vector{rng.NormFloat64(), rng.NormFloat64()}
				if _, ok := c.loss.(train.SoftmaxCrossEntropy); ok {
					y = tensor.Vector{0, 0}
					y[i%2] = 1
				}
				data[i] = Sample{X: x, Y: y}
			}
			if err := Train(net, data, TrainConfig{
				Epochs: 3, BatchSize: c.batch, LearningRate: 0.05, Seed: 9, Loss: c.loss,
			}); err != nil {
				t.Fatal(err)
			}
			if got := netBits(net); got != c.want {
				t.Errorf("trained bits %s, want %s", got, c.want)
			}
		})
	}
}

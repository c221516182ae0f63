package proptest

import (
	"math/rand"

	"github.com/apdeepsense/apdeepsense/internal/conv"
	"github.com/apdeepsense/apdeepsense/internal/nn"
	"github.com/apdeepsense/apdeepsense/internal/rnn"
	"github.com/apdeepsense/apdeepsense/internal/tensor"
)

// genHead draws a small dense head with a fixed input dimension (the pooled
// channel count of a conv stack), reusing the dense generator's activation
// and keep-probability coverage.
func genHead(rng *rand.Rand, inDim int) *nn.Network {
	depth := 1 + rng.Intn(3)
	hidden := make([]int, depth-1)
	for i := range hidden {
		hidden[i] = 1 + rng.Intn(12)
	}
	hiddenActs := []nn.Activation{nn.ActReLU, nn.ActLeakyReLU, nn.ActTanh, nn.ActSigmoid}
	outActs := []nn.Activation{nn.ActIdentity, nn.ActIdentity, nn.ActTanh, nn.ActSigmoid}
	keep := 0.5 + 0.5*rng.Float64()
	if rng.Intn(4) == 0 {
		keep = 1
	}
	net, err := nn.New(nn.Config{
		InputDim:         inDim,
		Hidden:           hidden,
		OutputDim:        1 + rng.Intn(6),
		Activation:       hiddenActs[rng.Intn(len(hiddenActs))],
		OutputActivation: outActs[rng.Intn(len(outActs))],
		KeepProb:         keep,
		Seed:             rng.Int63(),
	})
	if err != nil {
		panic("proptest: head generator produced invalid config: " + err.Error())
	}
	return net
}

// GenConvNet draws a random hybrid conv network — 1–3 conv layers with
// small channel counts, kernels 1–3, strides 1–4 (covering stride > kernel),
// the full activation set including leaky-ReLU, and keep probabilities with
// the dropout-free corner — plus a dense head. Returns the net and a valid input step count.
func GenConvNet(rng *rand.Rand) (*conv.Net, int) {
	nLayers := 1 + rng.Intn(3)
	acts := []nn.Activation{nn.ActReLU, nn.ActLeakyReLU, nn.ActTanh, nn.ActSigmoid, nn.ActIdentity}
	ch := 1 + rng.Intn(4)
	convs := make([]*conv.Conv1D, nLayers)
	for i := range convs {
		outCh := 1 + rng.Intn(6)
		kernel := 1 + rng.Intn(3)
		stride := 1 + rng.Intn(4)
		keep := 0.5 + 0.5*rng.Float64()
		if rng.Intn(4) == 0 {
			keep = 1
		}
		l, err := conv.NewConv1D(kernel, ch, outCh, stride, acts[rng.Intn(len(acts))], keep, rng)
		if err != nil {
			panic("proptest: conv generator produced invalid config: " + err.Error())
		}
		convs[i] = l
		ch = outCh
	}
	net, err := conv.NewNet(convs, genHead(rng, ch))
	if err != nil {
		panic("proptest: conv net construction failed: " + err.Error())
	}
	// Minimum input length that yields at least one step everywhere, plus
	// slack.
	need := 1
	for i := nLayers - 1; i >= 0; i-- {
		need = convs[i].Kernel + (need-1)*convs[i].Stride
	}
	return net, need + rng.Intn(8)
}

// GenSeq draws an input sequence with the same corner-heavy value classes
// as GenInput.
func GenSeq(rng *rand.Rand, steps, channels int) *conv.Seq {
	s := conv.NewSeq(steps, channels)
	vals := GenInput(rng, len(s.Data))
	copy(s.Data, vals)
	return s
}

// GenSeqVectors draws a step-major vector sequence for the recurrent paths.
func GenSeqVectors(rng *rand.Rand, steps, dim int) []tensor.Vector {
	xs := make([]tensor.Vector, steps)
	for t := range xs {
		xs[t] = GenInput(rng, dim)
	}
	return xs
}

// GenCell draws a random Elman cell: small dims, tanh/rectifier/sigmoid
// recurrences, keep probabilities with the dropout-free corner.
func GenCell(rng *rand.Rand) *rnn.Cell {
	acts := []nn.Activation{nn.ActTanh, nn.ActTanh, nn.ActReLU, nn.ActLeakyReLU, nn.ActSigmoid}
	keep := 0.5 + 0.5*rng.Float64()
	if rng.Intn(4) == 0 {
		keep = 1
	}
	c, err := rnn.NewCell(1+rng.Intn(5), 1+rng.Intn(10), 1+rng.Intn(4),
		acts[rng.Intn(len(acts))], keep, rng)
	if err != nil {
		panic("proptest: cell generator produced invalid config: " + err.Error())
	}
	return c
}

// GenGRU draws a random GRU with small dims.
func GenGRU(rng *rand.Rand) *rnn.GRU {
	keep := 0.5 + 0.5*rng.Float64()
	if rng.Intn(4) == 0 {
		keep = 1
	}
	g, err := rnn.NewGRU(1+rng.Intn(4), 1+rng.Intn(8), 1+rng.Intn(4), keep, rng)
	if err != nil {
		panic("proptest: gru generator produced invalid config: " + err.Error())
	}
	return g
}

package rnn

import (
	"fmt"
	"math/rand"

	"github.com/apdeepsense/apdeepsense/internal/tensor"
	"github.com/apdeepsense/apdeepsense/internal/train"
)

// Sample is one supervised sequence example: a sequence of input vectors
// and a target on the final readout.
type Sample struct {
	Xs []tensor.Vector
	Y  tensor.Vector
}

// TrainConfig controls Train.
type TrainConfig struct {
	Epochs       int
	BatchSize    int
	LearningRate float64
	// ClipNorm clips the per-batch global gradient norm; 0 disables.
	// Recurrent nets need it: exploding gradients are the default failure.
	ClipNorm float64
	Seed     int64
	Loss     train.Loss
	Logf     func(format string, args ...any)
}

func (c TrainConfig) validate(n int) error {
	if c.Epochs < 1 || c.BatchSize < 1 || c.BatchSize > n || c.LearningRate <= 0 {
		return fmt.Errorf("epochs=%d batch=%d lr=%v over %d samples: %w",
			c.Epochs, c.BatchSize, c.LearningRate, n, ErrConfig)
	}
	if c.Loss == nil {
		return fmt.Errorf("nil loss: %w", ErrConfig)
	}
	if c.ClipNorm < 0 {
		return fmt.Errorf("clip norm %v: %w", c.ClipNorm, ErrConfig)
	}
	return nil
}

// cellGrads accumulates parameter gradients.
type cellGrads struct {
	wx, wh, wo *tensor.Matrix
	b, bo      tensor.Vector
}

func newCellGrads(c *Cell) *cellGrads {
	return &cellGrads{
		wx: tensor.NewMatrix(c.InDim, c.HiddenDim),
		wh: tensor.NewMatrix(c.HiddenDim, c.HiddenDim),
		wo: tensor.NewMatrix(c.HiddenDim, c.OutDim),
		b:  tensor.NewVector(c.HiddenDim),
		bo: tensor.NewVector(c.OutDim),
	}
}

func (g *cellGrads) zero() {
	g.wx.Fill(0)
	g.wh.Fill(0)
	g.wo.Fill(0)
	g.b.Fill(0)
	g.bo.Fill(0)
}

// Train fits the cell in place with minibatch SGD and full
// backpropagation-through-time, sampling one recurrent mask per sequence
// (the variational recurrent dropout training procedure).
func Train(c *Cell, data []Sample, cfg TrainConfig) error {
	if err := cfg.validate(len(data)); err != nil {
		return err
	}
	for i, s := range data {
		if err := checkSeq(s.Xs, c.InDim); err != nil {
			return fmt.Errorf("sample %d: %w", i, err)
		}
		if len(s.Y) == 0 {
			return fmt.Errorf("sample %d: empty target: %w", i, ErrConfig)
		}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	perm := rng.Perm(len(data))
	grads := newCellGrads(c)
	lossGrad := tensor.NewVector(c.OutDim)

	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		var epochLoss float64
		for start := 0; start < len(perm); start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > len(perm) {
				end = len(perm)
			}
			grads.zero()
			for _, idx := range perm[start:end] {
				lv, err := c.bptt(data[idx], cfg.Loss, lossGrad, grads, rng)
				if err != nil {
					return fmt.Errorf("rnn: sample %d: %w", idx, err)
				}
				epochLoss += lv
			}
			scale := 1.0 / float64(end-start)
			applyClippedStep(c, grads, cfg, scale)
		}
		if cfg.Logf != nil {
			cfg.Logf("rnn epoch %d: train %.5f", epoch, epochLoss/float64(len(perm)))
		}
	}
	return nil
}

func applyClippedStep(c *Cell, g *cellGrads, cfg TrainConfig, scale float64) {
	applyClippedSGD(
		[][]float64{c.Wx.Data, c.Wh.Data, c.Wo.Data, c.B, c.Bo},
		[][]float64{g.wx.Data, g.wh.Data, g.wo.Data, g.b, g.bo},
		cfg, scale)
}

// bptt runs one stochastic forward pass and accumulates BPTT gradients.
func (c *Cell) bptt(s Sample, loss train.Loss, lossGrad tensor.Vector, g *cellGrads, rng *rand.Rand) (float64, error) {
	steps := len(s.Xs)
	mask := make([]float64, c.HiddenDim)
	for i := range mask {
		if c.KeepProb >= 1 || rng.Float64() < c.KeepProb {
			mask[i] = 1
		}
	}

	// Forward, storing pre-activations and (masked) previous states.
	pres := make([]tensor.Vector, steps)
	hs := make([]tensor.Vector, steps+1)
	hs[0] = tensor.NewVector(c.HiddenDim)
	masked := make([]tensor.Vector, steps)
	tmp := make(tensor.Vector, c.HiddenDim)
	for t, x := range s.Xs {
		masked[t] = make(tensor.Vector, c.HiddenDim)
		for i := range masked[t] {
			masked[t][i] = hs[t][i] * mask[i]
		}
		pre := make(tensor.Vector, c.HiddenDim)
		c.Wx.MulVecInto(x, pre)
		c.Wh.MulVecInto(masked[t], tmp)
		h := make(tensor.Vector, c.HiddenDim)
		for j := range pre {
			pre[j] += tmp[j] + c.B[j]
			h[j] = c.Act.Apply(pre[j])
		}
		pres[t] = pre
		hs[t+1] = h
	}
	out := readout(c.Wo, c.Bo, hs[steps])

	lv, err := loss.Eval(out, s.Y, lossGrad)
	if err != nil {
		return 0, err
	}

	// Readout gradients.
	if err := g.wo.OuterAddInPlace(hs[steps], lossGrad); err != nil {
		return 0, err
	}
	if err := g.bo.AddInPlace(lossGrad); err != nil {
		return 0, err
	}
	dh, err := c.Wo.MulVecT(lossGrad)
	if err != nil {
		return 0, err
	}

	// Through time.
	for t := steps - 1; t >= 0; t-- {
		dpre := make(tensor.Vector, c.HiddenDim)
		for j := range dpre {
			dpre[j] = dh[j] * c.Act.Derivative(pres[t][j])
		}
		if err := g.wx.OuterAddInPlace(s.Xs[t], dpre); err != nil {
			return 0, err
		}
		if err := g.wh.OuterAddInPlace(masked[t], dpre); err != nil {
			return 0, err
		}
		if err := g.b.AddInPlace(dpre); err != nil {
			return 0, err
		}
		if t > 0 {
			back, err := c.Wh.MulVecT(dpre)
			if err != nil {
				return 0, err
			}
			for i := range back {
				back[i] *= mask[i]
			}
			dh = back
		}
	}
	return lv, nil
}

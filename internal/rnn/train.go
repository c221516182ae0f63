package rnn

import (
	"fmt"
	"math"
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
	if c.Epochs < 1 || c.BatchSize < 1 || c.BatchSize > n || !(c.LearningRate > 0) || math.IsInf(c.LearningRate, 1) {
		return fmt.Errorf("epochs=%d batch=%d lr=%v over %d samples: %w",
			c.Epochs, c.BatchSize, c.LearningRate, n, ErrConfig)
	}
	if c.Loss == nil {
		return fmt.Errorf("nil loss: %w", ErrConfig)
	}
	if !(c.ClipNorm >= 0) || math.IsInf(c.ClipNorm, 1) {
		return fmt.Errorf("clip norm %v: %w", c.ClipNorm, ErrConfig)
	}
	return nil
}

// Train fits the cell in place with minibatch SGD and full
// backpropagation-through-time, sampling one recurrent mask per sequence
// (the variational recurrent dropout training procedure).
func Train(c *Cell, data []Sample, cfg TrainConfig) error {
	return c.spec().train("rnn", data, cfg)
}

// TrainGRU fits the GRU in place with minibatch SGD and full BPTT, one
// recurrent mask per sequence.
func TrainGRU(g *GRU, data []Sample, cfg TrainConfig) error {
	return g.spec().train("gru", data, cfg)
}

// TrainLSTM fits the LSTM in place with minibatch SGD and full BPTT, one
// recurrent mask per sequence (variational recurrent dropout training).
func TrainLSTM(l *LSTM, data []Sample, cfg TrainConfig) error {
	return l.spec().train("lstm", data, cfg)
}

// train is the one recurrent trainer. Every sequence and every target is
// checked (the target against cfg.Loss) before the first update, so a
// rejected call leaves the weights untouched. Sequences in one minibatch may
// differ in length.
func (s *cellSpec) train(name string, data []Sample, cfg TrainConfig) error {
	if err := cfg.validate(len(data)); err != nil {
		return err
	}
	maxSteps := 0
	probe, probeGrad := tensor.NewVector(s.wo.Cols), tensor.NewVector(s.wo.Cols)
	for i, sm := range data {
		if err := checkSeq(sm.Xs, s.in()); err != nil {
			return fmt.Errorf("sample %d: %w", i, err)
		}
		if _, err := cfg.Loss.Eval(probe, sm.Y, probeGrad); err != nil {
			return fmt.Errorf("sample %d: target: %w: %w", i, err, ErrConfig)
		}
		maxSteps = max(maxSteps, len(sm.Xs))
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	perm := rng.Perm(len(data))
	g := s.zeros()
	params, grads := s.params(), g.params()
	w := s.newBackprop(maxSteps)

	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		var epochLoss float64
		for start := 0; start < len(perm); start += cfg.BatchSize {
			end := min(start+cfg.BatchSize, len(perm))
			for _, gs := range grads {
				clear(gs)
			}
			for _, idx := range perm[start:end] {
				lv, err := s.bptt(data[idx], cfg.Loss, g, w, rng)
				if err != nil {
					return fmt.Errorf("%s: sample %d: %w", name, idx, err)
				}
				epochLoss += lv
			}
			applyClippedSGD(params, grads, cfg, 1.0/float64(end-start))
		}
		if cfg.Logf != nil {
			cfg.Logf("%s epoch %d: train %.5f", name, epoch, epochLoss/float64(len(perm)))
		}
	}
	return nil
}

// applyClippedSGD scales, clips (global norm), and applies gradients.
func applyClippedSGD(params, grads [][]float64, cfg TrainConfig, scale float64) {
	for _, gs := range grads {
		for i := range gs {
			gs[i] *= scale
		}
	}
	if cfg.ClipNorm > 0 {
		var norm2 float64
		for _, gs := range grads {
			for _, v := range gs {
				norm2 += v * v
			}
		}
		if norm2 > cfg.ClipNorm*cfg.ClipNorm {
			f := cfg.ClipNorm / math.Sqrt(norm2)
			for _, gs := range grads {
				for i := range gs {
					gs[i] *= f
				}
			}
		}
	}
	for pi, ps := range params {
		for i := range ps {
			ps[i] -= cfg.LearningRate * grads[pi][i]
		}
	}
}

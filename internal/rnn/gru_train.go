package rnn

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/apdeepsense/apdeepsense/internal/tensor"
	"github.com/apdeepsense/apdeepsense/internal/train"
)

// gruGrads accumulates GRU parameter gradients, ordered to match gruParams.
type gruGrads struct {
	wxr, whr, wxu, whu, wxc, whc *tensor.Matrix
	br, bu, bc                   tensor.Vector
	wo                           *tensor.Matrix
	bo                           tensor.Vector
}

func newGRUGrads(g *GRU) *gruGrads {
	return &gruGrads{
		wxr: tensor.NewMatrix(g.InDim, g.HiddenDim), whr: tensor.NewMatrix(g.HiddenDim, g.HiddenDim),
		wxu: tensor.NewMatrix(g.InDim, g.HiddenDim), whu: tensor.NewMatrix(g.HiddenDim, g.HiddenDim),
		wxc: tensor.NewMatrix(g.InDim, g.HiddenDim), whc: tensor.NewMatrix(g.HiddenDim, g.HiddenDim),
		br: tensor.NewVector(g.HiddenDim), bu: tensor.NewVector(g.HiddenDim), bc: tensor.NewVector(g.HiddenDim),
		wo: tensor.NewMatrix(g.HiddenDim, g.OutDim), bo: tensor.NewVector(g.OutDim),
	}
}

func (gr *gruGrads) slices() [][]float64 {
	return [][]float64{
		gr.wxr.Data, gr.whr.Data, gr.wxu.Data, gr.whu.Data, gr.wxc.Data, gr.whc.Data,
		gr.br, gr.bu, gr.bc, gr.wo.Data, gr.bo,
	}
}

func (g *GRU) paramSlices() [][]float64 {
	return [][]float64{
		g.Wxr.Data, g.Whr.Data, g.Wxu.Data, g.Whu.Data, g.Wxc.Data, g.Whc.Data,
		g.Br, g.Bu, g.Bc, g.Wo.Data, g.Bo,
	}
}

func (gr *gruGrads) zero() {
	for _, s := range gr.slices() {
		for i := range s {
			s[i] = 0
		}
	}
}

// TrainGRU fits the GRU in place with minibatch SGD and full BPTT, one
// recurrent mask per sequence.
func TrainGRU(g *GRU, data []Sample, cfg TrainConfig) error {
	if err := cfg.validate(len(data)); err != nil {
		return err
	}
	for i, s := range data {
		if err := checkSeq(s.Xs, g.InDim); err != nil {
			return fmt.Errorf("sample %d: %w", i, err)
		}
		if len(s.Y) == 0 {
			return fmt.Errorf("sample %d: empty target: %w", i, ErrConfig)
		}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	perm := rng.Perm(len(data))
	grads := newGRUGrads(g)
	lossGrad := tensor.NewVector(g.OutDim)

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
				lv, err := g.bptt(data[idx], cfg.Loss, lossGrad, grads, rng)
				if err != nil {
					return fmt.Errorf("gru: sample %d: %w", idx, err)
				}
				epochLoss += lv
			}
			applyClippedSGD(g.paramSlices(), grads.slices(), cfg, 1.0/float64(end-start))
		}
		if cfg.Logf != nil {
			cfg.Logf("gru epoch %d: train %.5f", epoch, epochLoss/float64(len(perm)))
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

// gruTrace stores one sequence's forward intermediates.
type gruTrace struct {
	hs     []tensor.Vector // h_0 .. h_T
	masked []tensor.Vector // ĥ per step
	rs     []tensor.Vector
	us     []tensor.Vector
	cs     []tensor.Vector
}

// bptt runs one stochastic pass and accumulates GRU BPTT gradients.
func (g *GRU) bptt(s Sample, loss train.Loss, lossGrad tensor.Vector, gr *gruGrads, rng *rand.Rand) (float64, error) {
	steps := len(s.Xs)
	n := g.HiddenDim
	mask := make([]float64, n)
	for i := range mask {
		if g.KeepProb >= 1 || rng.Float64() < g.KeepProb {
			mask[i] = 1
		}
	}

	tr := gruTrace{hs: make([]tensor.Vector, steps+1)}
	tr.hs[0] = tensor.NewVector(n)
	for t, x := range s.Xs {
		masked := make(tensor.Vector, n)
		for j := 0; j < n; j++ {
			masked[j] = tr.hs[t][j] * mask[j]
		}
		r, u, c, h := g.gruStep(x, tr.hs[t], masked)
		tr.masked = append(tr.masked, masked)
		tr.rs = append(tr.rs, r)
		tr.us = append(tr.us, u)
		tr.cs = append(tr.cs, c)
		tr.hs[t+1] = h
	}
	out := readout(g.Wo, g.Bo, tr.hs[steps])

	lv, err := loss.Eval(out, s.Y, lossGrad)
	if err != nil {
		return 0, err
	}

	if err := gr.wo.OuterAddInPlace(tr.hs[steps], lossGrad); err != nil {
		return 0, err
	}
	if err := gr.bo.AddInPlace(lossGrad); err != nil {
		return 0, err
	}
	dh, err := g.Wo.MulVecT(lossGrad)
	if err != nil {
		return 0, err
	}

	rm := make(tensor.Vector, n)
	for t := steps - 1; t >= 0; t-- {
		x := s.Xs[t]
		hPrev := tr.hs[t]
		masked := tr.masked[t]
		r, u, c := tr.rs[t], tr.us[t], tr.cs[t]

		daU := make(tensor.Vector, n)
		daC := make(tensor.Vector, n)
		dhPrev := make(tensor.Vector, n)
		for j := 0; j < n; j++ {
			du := dh[j] * (hPrev[j] - c[j])
			daU[j] = du * u[j] * (1 - u[j])
			dc := dh[j] * (1 - u[j])
			daC[j] = dc * (1 - c[j]*c[j])
			dhPrev[j] = dh[j] * u[j]
			rm[j] = r[j] * masked[j]
		}

		if err := gr.wxc.OuterAddInPlace(x, daC); err != nil {
			return 0, err
		}
		if err := gr.whc.OuterAddInPlace(rm, daC); err != nil {
			return 0, err
		}
		if err := gr.bc.AddInPlace(daC); err != nil {
			return 0, err
		}

		dRM, err := g.Whc.MulVecT(daC)
		if err != nil {
			return 0, err
		}
		daR := make(tensor.Vector, n)
		dMasked := make(tensor.Vector, n)
		for j := 0; j < n; j++ {
			dr := dRM[j] * masked[j]
			daR[j] = dr * r[j] * (1 - r[j])
			dMasked[j] = dRM[j] * r[j]
		}

		if err := gr.wxr.OuterAddInPlace(x, daR); err != nil {
			return 0, err
		}
		if err := gr.whr.OuterAddInPlace(masked, daR); err != nil {
			return 0, err
		}
		if err := gr.br.AddInPlace(daR); err != nil {
			return 0, err
		}
		if err := gr.wxu.OuterAddInPlace(x, daU); err != nil {
			return 0, err
		}
		if err := gr.whu.OuterAddInPlace(masked, daU); err != nil {
			return 0, err
		}
		if err := gr.bu.AddInPlace(daU); err != nil {
			return 0, err
		}

		backR, err := g.Whr.MulVecT(daR)
		if err != nil {
			return 0, err
		}
		backU, err := g.Whu.MulVecT(daU)
		if err != nil {
			return 0, err
		}
		for j := 0; j < n; j++ {
			dMasked[j] += backR[j] + backU[j]
			dhPrev[j] += dMasked[j] * mask[j]
		}
		dh = dhPrev
	}
	return lv, nil
}

package rnn

import (
	"fmt"
	"math/rand"

	"github.com/apdeepsense/apdeepsense/internal/tensor"
	"github.com/apdeepsense/apdeepsense/internal/train"
)

// lstmGrads accumulates LSTM parameter gradients, ordered as paramSlices.
type lstmGrads struct {
	wxi, whi, wxf, whf, wxo, who, wxg, whg *tensor.Matrix
	bi, bf, bo, bg                         tensor.Vector
	wo                                     *tensor.Matrix
	bro                                    tensor.Vector
}

func newLSTMGrads(l *LSTM) *lstmGrads {
	return &lstmGrads{
		wxi: tensor.NewMatrix(l.InDim, l.HiddenDim), whi: tensor.NewMatrix(l.HiddenDim, l.HiddenDim),
		wxf: tensor.NewMatrix(l.InDim, l.HiddenDim), whf: tensor.NewMatrix(l.HiddenDim, l.HiddenDim),
		wxo: tensor.NewMatrix(l.InDim, l.HiddenDim), who: tensor.NewMatrix(l.HiddenDim, l.HiddenDim),
		wxg: tensor.NewMatrix(l.InDim, l.HiddenDim), whg: tensor.NewMatrix(l.HiddenDim, l.HiddenDim),
		bi: tensor.NewVector(l.HiddenDim), bf: tensor.NewVector(l.HiddenDim),
		bo: tensor.NewVector(l.HiddenDim), bg: tensor.NewVector(l.HiddenDim),
		wo: tensor.NewMatrix(l.HiddenDim, l.OutDim), bro: tensor.NewVector(l.OutDim),
	}
}

func (gr *lstmGrads) slices() [][]float64 {
	return [][]float64{
		gr.wxi.Data, gr.whi.Data, gr.wxf.Data, gr.whf.Data,
		gr.wxo.Data, gr.who.Data, gr.wxg.Data, gr.whg.Data,
		gr.bi, gr.bf, gr.bo, gr.bg, gr.wo.Data, gr.bro,
	}
}

func (l *LSTM) paramSlices() [][]float64 {
	return [][]float64{
		l.Wxi.Data, l.Whi.Data, l.Wxf.Data, l.Whf.Data,
		l.Wxo.Data, l.Who.Data, l.Wxg.Data, l.Whg.Data,
		l.Bi, l.Bf, l.Bo, l.Bg, l.Wo.Data, l.Bro,
	}
}

func (gr *lstmGrads) zero() {
	for _, s := range gr.slices() {
		for i := range s {
			s[i] = 0
		}
	}
}

// TrainLSTM fits the LSTM in place with minibatch SGD and full BPTT, one
// recurrent mask per sequence (variational recurrent dropout training).
func TrainLSTM(l *LSTM, data []Sample, cfg TrainConfig) error {
	if err := cfg.validate(len(data)); err != nil {
		return err
	}
	for i, s := range data {
		if err := checkSeq(s.Xs, l.InDim); err != nil {
			return fmt.Errorf("sample %d: %w", i, err)
		}
		if len(s.Y) == 0 {
			return fmt.Errorf("sample %d: empty target: %w", i, ErrConfig)
		}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	perm := rng.Perm(len(data))
	grads := newLSTMGrads(l)
	lossGrad := tensor.NewVector(l.OutDim)

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
				lv, err := l.bptt(data[idx], cfg.Loss, lossGrad, grads, rng)
				if err != nil {
					return fmt.Errorf("lstm: sample %d: %w", idx, err)
				}
				epochLoss += lv
			}
			applyClippedSGD(l.paramSlices(), grads.slices(), cfg, 1.0/float64(end-start))
		}
		if cfg.Logf != nil {
			cfg.Logf("lstm epoch %d: train %.5f", epoch, epochLoss/float64(len(perm)))
		}
	}
	return nil
}

// lstmTrace stores one sequence's forward intermediates for BPTT.
type lstmTrace struct {
	hs, cs              []tensor.Vector // states h_0..h_T, c_0..c_T
	masked              []tensor.Vector
	is, fs, os, gs, tcs []tensor.Vector
}

// bptt runs one stochastic pass and accumulates LSTM BPTT gradients.
func (l *LSTM) bptt(s Sample, loss train.Loss, lossGrad tensor.Vector, gr *lstmGrads, rng *rand.Rand) (float64, error) {
	steps := len(s.Xs)
	n := l.HiddenDim
	mask := make([]float64, n)
	for j := range mask {
		if l.KeepProb >= 1 || rng.Float64() < l.KeepProb {
			mask[j] = 1
		}
	}

	tr := lstmTrace{hs: make([]tensor.Vector, steps+1), cs: make([]tensor.Vector, steps+1)}
	tr.hs[0] = tensor.NewVector(n)
	tr.cs[0] = tensor.NewVector(n)
	for t, x := range s.Xs {
		masked := make(tensor.Vector, n)
		for j := 0; j < n; j++ {
			masked[j] = tr.hs[t][j] * mask[j]
		}
		i, f, o, g, c, tc, h := l.lstmStep(x, masked, tr.cs[t])
		tr.masked = append(tr.masked, masked)
		tr.is = append(tr.is, i)
		tr.fs = append(tr.fs, f)
		tr.os = append(tr.os, o)
		tr.gs = append(tr.gs, g)
		tr.tcs = append(tr.tcs, tc)
		tr.hs[t+1] = h
		tr.cs[t+1] = c
	}
	out := readout(l.Wo, l.Bro, tr.hs[steps])

	lv, err := loss.Eval(out, s.Y, lossGrad)
	if err != nil {
		return 0, err
	}
	if err := gr.wo.OuterAddInPlace(tr.hs[steps], lossGrad); err != nil {
		return 0, err
	}
	if err := gr.bro.AddInPlace(lossGrad); err != nil {
		return 0, err
	}
	dh, err := l.Wo.MulVecT(lossGrad)
	if err != nil {
		return 0, err
	}
	dc := tensor.NewVector(n)

	for t := steps - 1; t >= 0; t-- {
		x := s.Xs[t]
		masked := tr.masked[t]
		i, f, o, g, tc := tr.is[t], tr.fs[t], tr.os[t], tr.gs[t], tr.tcs[t]
		cPrev := tr.cs[t]

		daI := make(tensor.Vector, n)
		daF := make(tensor.Vector, n)
		daO := make(tensor.Vector, n)
		daG := make(tensor.Vector, n)
		dcPrev := make(tensor.Vector, n)
		for j := 0; j < n; j++ {
			do := dh[j] * tc[j]
			dcj := dc[j] + dh[j]*o[j]*(1-tc[j]*tc[j])
			daO[j] = do * o[j] * (1 - o[j])
			daF[j] = dcj * cPrev[j] * f[j] * (1 - f[j])
			daI[j] = dcj * g[j] * i[j] * (1 - i[j])
			daG[j] = dcj * i[j] * (1 - g[j]*g[j])
			dcPrev[j] = dcj * f[j]
		}

		type gradPair struct {
			wx, wh *tensor.Matrix
			b      tensor.Vector
			da     tensor.Vector
			whSrc  *tensor.Matrix
		}
		pairs := []gradPair{
			{gr.wxi, gr.whi, gr.bi, daI, l.Whi},
			{gr.wxf, gr.whf, gr.bf, daF, l.Whf},
			{gr.wxo, gr.who, gr.bo, daO, l.Who},
			{gr.wxg, gr.whg, gr.bg, daG, l.Whg},
		}
		dMasked := tensor.NewVector(n)
		for _, pr := range pairs {
			if err := pr.wx.OuterAddInPlace(x, pr.da); err != nil {
				return 0, err
			}
			if err := pr.wh.OuterAddInPlace(masked, pr.da); err != nil {
				return 0, err
			}
			if err := pr.b.AddInPlace(pr.da); err != nil {
				return 0, err
			}
			back, err := pr.whSrc.MulVecT(pr.da)
			if err != nil {
				return 0, err
			}
			if err := dMasked.AddInPlace(back); err != nil {
				return 0, err
			}
		}
		dhPrev := make(tensor.Vector, n)
		for j := 0; j < n; j++ {
			dhPrev[j] = dMasked[j] * mask[j]
		}
		dh = dhPrev
		dc = dcPrev
	}
	return lv, nil
}

package rnn

import (
	"fmt"
	"math/rand"
	"sync"

	"github.com/apdeepsense/apdeepsense/internal/core"
	"github.com/apdeepsense/apdeepsense/internal/nn"
	"github.com/apdeepsense/apdeepsense/internal/stats"
	"github.com/apdeepsense/apdeepsense/internal/tensor"
)

// LSTM is a long short-term memory cell with variational recurrent dropout
// on the recurrent state — the exact architecture of the paper's reference
// [37] (Gal & Ghahramani's Bayesian RNN), where one Bernoulli mask per
// sequence multiplies h at every step:
//
//	ĥ   = h_{t−1} ⊙ z
//	i   = σ(x Wxi + ĥ Whi + bi)      input gate
//	f   = σ(x Wxf + ĥ Whf + bf)      forget gate (bias initialized to +1)
//	o   = σ(x Wxo + ĥ Who + bo)      output gate
//	g   = tanh(x Wxg + ĥ Whg + bg)   candidate
//	c_t = f ⊙ c_{t−1} + i ⊙ g
//	h_t = o ⊙ tanh(c_t)
//
// with a linear readout of h_T. Moment propagation composes the dense
// dropout moments, PWL gate moments, and Gaussian product moments; the
// diagonal family drops gate/state/temporal correlations as everywhere else
// in ApDeepSense.
type LSTM struct {
	InDim, HiddenDim, OutDim int

	Wxi, Whi       *tensor.Matrix
	Wxf, Whf       *tensor.Matrix
	Wxo, Who       *tensor.Matrix
	Wxg, Whg       *tensor.Matrix
	Bi, Bf, Bo, Bg tensor.Vector

	Wo  *tensor.Matrix
	Bro tensor.Vector // readout bias

	KeepProb float64
}

// NewLSTM builds a Glorot-initialized LSTM with forget bias +1.
func NewLSTM(inDim, hiddenDim, outDim int, keepProb float64, rng *rand.Rand) (*LSTM, error) {
	if inDim < 1 || hiddenDim < 1 || outDim < 1 {
		return nil, fmt.Errorf("lstm dims %d/%d/%d: %w", inDim, hiddenDim, outDim, ErrConfig)
	}
	if keepProb <= 0 || keepProb > 1 {
		return nil, fmt.Errorf("lstm keep prob %v: %w", keepProb, ErrConfig)
	}
	l := &LSTM{
		InDim: inDim, HiddenDim: hiddenDim, OutDim: outDim,
		Wxi: tensor.NewMatrix(inDim, hiddenDim), Whi: tensor.NewMatrix(hiddenDim, hiddenDim),
		Wxf: tensor.NewMatrix(inDim, hiddenDim), Whf: tensor.NewMatrix(hiddenDim, hiddenDim),
		Wxo: tensor.NewMatrix(inDim, hiddenDim), Who: tensor.NewMatrix(hiddenDim, hiddenDim),
		Wxg: tensor.NewMatrix(inDim, hiddenDim), Whg: tensor.NewMatrix(hiddenDim, hiddenDim),
		Bi: tensor.NewVector(hiddenDim), Bf: tensor.NewVector(hiddenDim),
		Bo: tensor.NewVector(hiddenDim), Bg: tensor.NewVector(hiddenDim),
		Wo: tensor.NewMatrix(hiddenDim, outDim), Bro: tensor.NewVector(outDim),
		KeepProb: keepProb,
	}
	for _, w := range []*tensor.Matrix{l.Wxi, l.Wxf, l.Wxo, l.Wxg, l.Wo} {
		w.GlorotUniform(rng)
	}
	for _, w := range []*tensor.Matrix{l.Whi, l.Whf, l.Who, l.Whg} {
		w.GlorotUniform(rng)
		w.ScaleInPlace(0.6)
	}
	l.Bf.Fill(1) // standard forget-gate bias
	return l, nil
}

func (l *LSTM) checkSeq(xs []tensor.Vector) error {
	if len(xs) == 0 {
		return fmt.Errorf("lstm: empty sequence: %w", ErrConfig)
	}
	for t, x := range xs {
		if len(x) != l.InDim {
			return fmt.Errorf("lstm: step %d has dim %d, want %d: %w", t, len(x), l.InDim, ErrConfig)
		}
	}
	return nil
}

// lstmStep advances one step given the masked recurrent input, returning
// the gate activations, candidate, new cell state, tanh(c), and new hidden
// state for reuse by BPTT.
func (l *LSTM) lstmStep(x, masked, cPrev tensor.Vector) (i, f, o, g, c, tc, h tensor.Vector) {
	n := l.HiddenDim
	i = make(tensor.Vector, n)
	f = make(tensor.Vector, n)
	o = make(tensor.Vector, n)
	g = make(tensor.Vector, n)
	c = make(tensor.Vector, n)
	tc = make(tensor.Vector, n)
	h = make(tensor.Vector, n)
	tmpX := make(tensor.Vector, n)
	tmpH := make(tensor.Vector, n)

	gates := []struct {
		wx, wh *tensor.Matrix
		b, out tensor.Vector
		act    nn.Activation
	}{
		{l.Wxi, l.Whi, l.Bi, i, nn.ActSigmoid},
		{l.Wxf, l.Whf, l.Bf, f, nn.ActSigmoid},
		{l.Wxo, l.Who, l.Bo, o, nn.ActSigmoid},
		{l.Wxg, l.Whg, l.Bg, g, nn.ActTanh},
	}
	for _, gt := range gates {
		gt.wx.MulVecInto(x, tmpX)
		gt.wh.MulVecInto(masked, tmpH)
		for j := 0; j < n; j++ {
			gt.out[j] = gt.act.Apply(tmpX[j] + tmpH[j] + gt.b[j])
		}
	}
	for j := 0; j < n; j++ {
		c[j] = f[j]*cPrev[j] + i[j]*g[j]
		tc[j] = nn.ActTanh.Apply(c[j])
		h[j] = o[j] * tc[j]
	}
	return i, f, o, g, c, tc, h
}

// Forward runs the weight-scaled deterministic pass.
func (l *LSTM) Forward(xs []tensor.Vector) (tensor.Vector, error) {
	if err := l.checkSeq(xs); err != nil {
		return nil, err
	}
	n := l.HiddenDim
	h := make(tensor.Vector, n)
	c := make(tensor.Vector, n)
	masked := make(tensor.Vector, n)
	for _, x := range xs {
		for j := 0; j < n; j++ {
			masked[j] = h[j] * l.KeepProb
		}
		_, _, _, _, c, _, h = l.lstmStep(x, masked, c)
	}
	return l.readout(h), nil
}

// ForwardSample runs one stochastic pass with a single per-sequence mask.
func (l *LSTM) ForwardSample(xs []tensor.Vector, rng *rand.Rand) (tensor.Vector, error) {
	if err := l.checkSeq(xs); err != nil {
		return nil, err
	}
	n := l.HiddenDim
	mask := make([]float64, n)
	for j := range mask {
		if l.KeepProb >= 1 || rng.Float64() < l.KeepProb {
			mask[j] = 1
		}
	}
	h := make(tensor.Vector, n)
	c := make(tensor.Vector, n)
	masked := make(tensor.Vector, n)
	for _, x := range xs {
		for j := 0; j < n; j++ {
			masked[j] = h[j] * mask[j]
		}
		_, _, _, _, c, _, h = l.lstmStep(x, masked, c)
	}
	return l.readout(h), nil
}

func (l *LSTM) readout(h tensor.Vector) tensor.Vector {
	out := make(tensor.Vector, l.OutDim)
	l.Wo.MulVecInto(h, out)
	for j := range out {
		out[j] += l.Bro[j]
	}
	return out
}

// lstmSigmoid and lstmTanh are the gate activation kernels, resolved once
// per process: the PWL fits are deterministic and the kernels read-only.
var lstmSigmoid, lstmTanh = kernelOnce(nn.ActSigmoid), kernelOnce(nn.ActTanh)

func kernelOnce(act nn.Activation) func() (*core.ActKernel, error) {
	return sync.OnceValues(func() (*core.ActKernel, error) {
		_, ak, err := core.KernelFor(act, core.Options{})
		return ak, err
	})
}

// PropagateMoments runs the closed-form LSTM moment pass.
func (l *LSTM) PropagateMoments(xs []tensor.Vector) (core.GaussianVec, error) {
	if err := l.checkSeq(xs); err != nil {
		return core.GaussianVec{}, err
	}
	sig, err := lstmSigmoid()
	if err != nil {
		return core.GaussianVec{}, err
	}
	tanh, err := lstmTanh()
	if err != nil {
		return core.GaussianVec{}, err
	}
	nb := max(sig.NumBounds(), tanh.NumBounds())
	bounds := make([]stats.Boundary, nb)
	pms := make([]stats.PartialMoments, nb)
	n := l.HiddenDim
	p := l.KeepProb
	woSq := l.Wo.Square()

	type gateSpec struct {
		wx, wh, whSq *tensor.Matrix
		b            tensor.Vector
		ak           *core.ActKernel
		outM, outV   tensor.Vector
	}
	gates := []gateSpec{
		{l.Wxi, l.Whi, l.Whi.Square(), l.Bi, sig, make(tensor.Vector, n), make(tensor.Vector, n)},
		{l.Wxf, l.Whf, l.Whf.Square(), l.Bf, sig, make(tensor.Vector, n), make(tensor.Vector, n)},
		{l.Wxo, l.Who, l.Who.Square(), l.Bo, sig, make(tensor.Vector, n), make(tensor.Vector, n)},
		{l.Wxg, l.Whg, l.Whg.Square(), l.Bg, tanh, make(tensor.Vector, n), make(tensor.Vector, n)},
	}

	h := core.NewGaussianVec(n)
	c := core.NewGaussianVec(n)
	mM := make(tensor.Vector, n)
	mV := make(tensor.Vector, n)
	xContrib := make(tensor.Vector, n)
	preM := make(tensor.Vector, n)
	preV := make(tensor.Vector, n)

	for _, x := range xs {
		for j := 0; j < n; j++ {
			mu, v := h.Mean[j], h.Var[j]
			mM[j] = p * mu
			mV[j] = p*(mu*mu+v) - p*p*mu*mu
		}
		for _, gt := range gates {
			gt.wx.MulVecInto(x, xContrib)
			gt.wh.MulVecInto(mM, preM)
			gt.whSq.MulVecInto(mV, preV)
			for j := 0; j < n; j++ {
				m := xContrib[j] + preM[j] + gt.b[j]
				v := preV[j]
				if v < 0 {
					v = 0
				}
				gt.outM[j], gt.outV[j] = gt.ak.Moments(m, v, bounds, pms)
			}
		}
		iM, iV := gates[0].outM, gates[0].outV
		fM, fV := gates[1].outM, gates[1].outV
		oM, oV := gates[2].outM, gates[2].outV
		gM, gV := gates[3].outM, gates[3].outV
		for j := 0; j < n; j++ {
			// c = f⊙c + i⊙g under the independence approximation.
			fcM, fcV := productMoments(fM[j], fV[j], c.Mean[j], c.Var[j])
			igM, igV := productMoments(iM[j], iV[j], gM[j], gV[j])
			c.Mean[j] = fcM + igM
			c.Var[j] = fcV + igV
			// h = o ⊙ tanh(c).
			tcM, tcV := tanh.Moments(c.Mean[j], c.Var[j], bounds, pms)
			h.Mean[j], h.Var[j] = productMoments(oM[j], oV[j], tcM, tcV)
		}
	}

	out := core.NewGaussianVec(l.OutDim)
	l.Wo.MulVecInto(h.Mean, out.Mean)
	woSq.MulVecInto(h.Var, out.Var)
	for j := range out.Mean {
		out.Mean[j] += l.Bro[j]
	}
	return out, nil
}

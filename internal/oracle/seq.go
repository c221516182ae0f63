package oracle

import (
	"fmt"
	"math"

	"github.com/apdeepsense/apdeepsense/internal/conv"
	"github.com/apdeepsense/apdeepsense/internal/core"
	"github.com/apdeepsense/apdeepsense/internal/nn"
	"github.com/apdeepsense/apdeepsense/internal/piecewise"
	"github.com/apdeepsense/apdeepsense/internal/rnn"
	"github.com/apdeepsense/apdeepsense/internal/tensor"
)

// This file extends the differential oracle to the sequence fast paths
// (internal/conv, internal/rnn): the same contract as Ref — every linear
// moment step mirrored textually (identical float expression sequences, so
// the linear algebra is bit-identical and only the activation closed forms
// diverge), every activation evaluated by quadrature, and an a-priori
// CondBudget accumulated by the same sensitivity recursion forward() uses.
// No budget constant is tuned per test: condEps is the single floor, and
// everything else derives from weight norms and the moments of the pass.

// seqActFit resolves one sequence-layer activation exactly the way
// core.KernelFor does (same PWL defaults) and returns the oracle-side
// linear-scan evaluator, quadrature breaks, and Lipschitz constant.
func seqActFit(act nn.Activation, opts core.Options) (f *piecewise.Func, eval func(float64) float64, breaks []float64, err error) {
	switch act {
	case nn.ActIdentity:
		f = piecewise.Identity()
	case nn.ActReLU:
		f = piecewise.ReLU()
	case nn.ActLeakyReLU:
		f = piecewise.LeakyReLU(nn.LeakyAlpha)
	case nn.ActTanh:
		f, err = piecewise.Tanh(defaultPieces(opts.TanhPieces))
	case nn.ActSigmoid:
		f, err = piecewise.Sigmoid(defaultPieces(opts.SigmoidPieces))
	default:
		err = fmt.Errorf("oracle: unsupported activation %v: %w", act, core.ErrInput)
	}
	if err != nil {
		return nil, nil, nil, err
	}
	eval = scanEval(f.Pieces())
	for _, k := range f.Knots() {
		if !math.IsInf(k, 0) {
			breaks = append(breaks, k)
		}
	}
	return f, eval, breaks, nil
}

// actInject applies one activation step of the conditioning-budget
// recursion, shared by every reference: fresh condEps noise at the
// pre-activation moment scale, the derived tail-cutoff bound of f
// (TailBudget), and the incoming error amplified by the activation's
// moment-map sensitivities (lip = max |slope| of f).
func actInject(dMu, dVar, scale, width float64, f *piecewise.Func) (float64, float64) {
	sqrt2OverPi := math.Sqrt(2 / math.Pi)
	lip := f.MaxAbsSlope()
	tailMu, tailVar := TailBudget(f, scale, width)
	dSig := math.Sqrt(dVar)
	return condEps*scale + tailMu + lip*dMu + lip*sqrt2OverPi*dSig,
		condEps*scale*scale + tailVar + 2*lip*width*dMu + 2*lip*width*sqrt2OverPi*dSig
}

// actWidth returns the output-range bound W entering the variance
// sensitivity: the range width for bounded activations, lip·scale for the
// unbounded rest (lip = max |slope| of the fit f).
func actWidth(act nn.Activation, f *piecewise.Func, scale float64) float64 {
	switch act {
	case nn.ActTanh:
		return 2
	case nn.ActSigmoid:
		return 1
	default:
		return f.MaxAbsSlope() * scale
	}
}

// ConvRef is the reference moment pass for a hybrid conv.Net: naive
// textually-mirrored conv window sums and pooling, quadrature activation
// moments, and the dense head via the standard Ref. Construct once per
// network with the same options the Net was built with.
type ConvRef struct {
	convs  []*conv.Conv1D
	head   *Ref
	evals  []func(float64) float64
	breaks [][]float64
	fits   []*piecewise.Func
	a1, a2 []float64
}

// NewConvRef builds the conv reference. opts supplies the PWL piece counts
// and must match the fast Net's, which conv.NewNet takes from the defaults;
// the oracle quadratures the fit whichever backend the fast path serves.
func NewConvRef(n *conv.Net, opts core.Options) (*ConvRef, error) {
	convs := n.Convs()
	head, err := NewRef(n.Head(), opts, false)
	if err != nil {
		return nil, err
	}
	r := &ConvRef{
		convs:  convs,
		head:   head,
		evals:  make([]func(float64) float64, len(convs)),
		breaks: make([][]float64, len(convs)),
		fits:   make([]*piecewise.Func, len(convs)),
		a1:     make([]float64, len(convs)),
		a2:     make([]float64, len(convs)),
	}
	for i, l := range convs {
		f, eval, breaks, err := seqActFit(l.Act, opts)
		if err != nil {
			return nil, fmt.Errorf("oracle: conv layer %d: %w", i, err)
		}
		r.evals[i] = eval
		r.breaks[i] = breaks
		r.fits[i] = f
		r.a1[i], r.a2[i] = convWeightNorms(l)
	}
	return r, nil
}

// convWeightNorms returns the per-output-element window norms entering the
// budget recursion: a1 = max_o Σ_{k,c} |w|, a2 = max_o Σ_{k,c} w².
func convWeightNorms(l *conv.Conv1D) (a1, a2 float64) {
	for o := 0; o < l.OutCh; o++ {
		var s1, s2 float64
		for k := 0; k < l.Kernel; k++ {
			for c := 0; c < l.InCh; c++ {
				w := l.W[(k*l.InCh+c)*l.OutCh+o]
				s1 += math.Abs(w)
				s2 += w * w
			}
		}
		if s1 > a1 {
			a1 = s1
		}
		if s2 > a2 {
			a2 = s2
		}
	}
	return a1, a2
}

// ForwardCond runs the reference pass over a plain input sequence and
// returns the conditioning budget: the fast Net.PropagateMoments result
// must match within rel·max(1, |want|) + budget.
func (r *ConvRef) ForwardCond(x *conv.Seq) (core.GaussianVec, CondBudget, error) {
	g := conv.DeterministicSeq(x)
	var dMu, dVar float64
	for li, l := range r.convs {
		// Amplification of the incoming error through the window sums and
		// the dropout input-moment map — mirroring forward()'s dense-step
		// sensitivity, with the keep==1 branch matching the fast path's
		// pass-through fast path (no μ-coupling without a mask).
		maxAbsMu := 0.0
		for _, m := range g.Mean.Data {
			if a := math.Abs(m); a > maxAbsMu {
				maxAbsMu = a
			}
		}
		p := l.KeepProb
		if p == 1 {
			dMu, dVar = r.a1[li]*dMu, r.a2[li]*dVar
		} else {
			dMu, dVar = p*r.a1[li]*dMu, r.a2[li]*(p*dVar+p*(1-p)*dMu*(2*maxAbsMu+dMu))
		}

		outSteps, err := l.OutSteps(g.Mean.Steps)
		if err != nil {
			return core.GaussianVec{}, CondBudget{}, fmt.Errorf("oracle: conv %d: %w", li, err)
		}
		out := conv.NewGaussianSeq(outSteps, l.OutCh)
		// Textual mirror of Conv1D.PropagateMomentsKernel's window sums and
		// dropout algebra — identical float expression sequence, so this
		// part is bit-identical to the fast path and adds no budget.
		for t := 0; t < outSteps; t++ {
			base := t * l.Stride
			for o := 0; o < l.OutCh; o++ {
				mean := l.B[o]
				variance := 0.0
				for c := 0; c < l.InCh; c++ {
					var muA, varA float64
					for k := 0; k < l.Kernel; k++ {
						w := l.W[(k*l.InCh+c)*l.OutCh+o]
						muA += g.Mean.At(base+k, c) * w
						varA += g.Var.At(base+k, c) * w * w
					}
					if p == 1 {
						mean += muA
						variance += varA
					} else {
						mean += p * muA
						variance += (muA*muA+varA)*p - muA*muA*p*p
					}
				}
				if variance < 0 {
					variance = 0
				}
				out.Mean.Set(t, o, mean)
				out.Var.Set(t, o, variance)
			}
		}

		// Pre-activation moment scale, then quadrature activation moments.
		var scale float64
		for i := range out.Mean.Data {
			if s := math.Abs(out.Mean.Data[i]) + tailSigmas*math.Sqrt(out.Var.Data[i]); s > scale {
				scale = s
			}
		}
		for i := range out.Mean.Data {
			out.Mean.Data[i], out.Var.Data[i] = ActMoments(r.evals[li], r.breaks[li], out.Mean.Data[i], out.Var.Data[i])
		}
		if l.Act != nn.ActIdentity {
			f := r.fits[li]
			dMu, dVar = actInject(dMu, dVar, scale, actWidth(l.Act, f, scale), f)
		}
		g = out
	}

	// Textual mirror of GlobalAvgPoolMoments. Averaging cannot amplify the
	// per-element sup-norm error, so the budget passes through.
	ch := g.Mean.Channels
	pooled := core.NewGaussianVec(ch)
	if g.Mean.Steps > 0 {
		nSteps := float64(g.Mean.Steps)
		for c := 0; c < ch; c++ {
			var m, v float64
			for t := 0; t < g.Mean.Steps; t++ {
				m += g.Mean.At(t, c)
				v += g.Var.At(t, c)
			}
			pooled.Mean[c] = m / nSteps
			pooled.Var[c] = v / (nSteps * nSteps)
		}
	}
	return r.head.forwardFromSeed(pooled, r.head.pwlEval, r.head.breaks, dMu, dVar)
}

// RNNRef is the reference moment pass for an Elman rnn.Cell: the recurrence
// mirrored textually per step, quadrature activation moments, and the
// budget recursion applied once per timestep.
type RNNRef struct {
	c        *rnn.Cell
	eval     func(float64) float64
	breaks   []float64
	fit      *piecewise.Func
	a1h, a2h float64
	a1o, a2o float64
}

// NewRNNRef builds the recurrence reference.
func NewRNNRef(c *rnn.Cell, opts core.Options) (*RNNRef, error) {
	f, eval, breaks, err := seqActFit(c.Act, opts)
	if err != nil {
		return nil, err
	}
	r := &RNNRef{c: c, eval: eval, breaks: breaks, fit: f}
	r.a1h, r.a2h = matrixNorms(c.Wh)
	r.a1o, r.a2o = matrixNorms(c.Wo)
	return r, nil
}

// matrixNorms returns max_j Σ_i |W_ij| and max_j Σ_i W²_ij for a
// rows×cols matrix in row-major layout (the per-output sensitivities of a
// MulVec against it).
func matrixNorms(w *tensor.Matrix) (a1, a2 float64) {
	for j := 0; j < w.Cols; j++ {
		var s1, s2 float64
		for i := 0; i < w.Rows; i++ {
			v := w.Data[i*w.Cols+j]
			s1 += math.Abs(v)
			s2 += v * v
		}
		if s1 > a1 {
			a1 = s1
		}
		if s2 > a2 {
			a2 = s2
		}
	}
	return a1, a2
}

// ForwardCond runs the reference recurrence and returns the conditioning
// budget for the readout moments.
func (r *RNNRef) ForwardCond(xs []tensor.Vector) (core.GaussianVec, CondBudget, error) {
	c := r.c
	n := c.HiddenDim
	h := core.NewGaussianVec(n)
	muIn := make(tensor.Vector, n)
	varIn := make(tensor.Vector, n)
	xContrib := make(tensor.Vector, n)
	preMean := make(tensor.Vector, n)
	preVar := make(tensor.Vector, n)
	var dMu, dVar float64
	p := c.KeepProb
	for st, x := range xs {
		if len(x) != c.InDim {
			return core.GaussianVec{}, CondBudget{}, fmt.Errorf("oracle: rnn step %d dim %d, want %d: %w", st, len(x), c.InDim, core.ErrInput)
		}
		maxAbsMu := 0.0
		for _, m := range h.Mean {
			if a := math.Abs(m); a > maxAbsMu {
				maxAbsMu = a
			}
		}
		if p == 1 {
			dMu, dVar = r.a1h*dMu, r.a2h*dVar
		} else {
			dMu, dVar = p*r.a1h*dMu, r.a2h*(p*dVar+p*(1-p)*dMu*(2*maxAbsMu+dMu))
		}

		// Textual mirror of the rnn engine's Elman step (naive ascending
		// matmuls match the accumulation order of tensor.MulVecInto and
		// tensor.DualMulInto bit-for-bit).
		mulVecNaive(c.Wx, x, xContrib)
		if p == 1 {
			copy(muIn, h.Mean)
			copy(varIn, h.Var)
		} else {
			for i := 0; i < n; i++ {
				mu, s2 := h.Mean[i], h.Var[i]
				muIn[i] = mu * p
				varIn[i] = (mu*mu+s2)*p - mu*mu*p*p
			}
		}
		mulVecNaive(c.Wh, muIn, preMean)
		mulVecSqNaive(c.Wh, varIn, preVar)
		var scale float64
		for j := 0; j < n; j++ {
			m := xContrib[j] + preMean[j] + c.B[j]
			v := preVar[j]
			if v < 0 {
				v = 0
			}
			if s := math.Abs(m) + tailSigmas*math.Sqrt(v); s > scale {
				scale = s
			}
			h.Mean[j] = m
			h.Var[j] = v
		}
		for j := 0; j < n; j++ {
			h.Mean[j], h.Var[j] = ActMoments(r.eval, r.breaks, h.Mean[j], h.Var[j])
		}
		if c.Act != nn.ActIdentity {
			dMu, dVar = actInject(dMu, dVar, scale, actWidth(c.Act, r.fit, scale), r.fit)
		}
	}

	// Readout: linear, mirrored; the budget is amplified by the readout
	// norms only.
	out := core.NewGaussianVec(c.OutDim)
	mulVecNaive(c.Wo, h.Mean, out.Mean)
	mulVecSqNaive(c.Wo, h.Var, out.Var)
	for j := range out.Mean {
		out.Mean[j] += c.Bo[j]
	}
	return out, CondBudget{Mean: r.a1o * dMu, Var: r.a2o * dVar}, nil
}

// mulVecNaive computes out = x·W with per-output accumulation in strictly
// ascending input order — the documented accumulation order of
// tensor.MulVecInto, so the two agree bit-for-bit.
func mulVecNaive(w *tensor.Matrix, x, out tensor.Vector) {
	for j := 0; j < w.Cols; j++ {
		var s float64
		for i := 0; i < w.Rows; i++ {
			s += x[i] * w.Data[i*w.Cols+j]
		}
		out[j] = s
	}
}

// mulVecSqNaive is mulVecNaive against the element-squared matrix, with
// w*w computed inline (bit-identical to a precomputed Square()).
func mulVecSqNaive(w *tensor.Matrix, x, out tensor.Vector) {
	for j := 0; j < w.Cols; j++ {
		var s float64
		for i := 0; i < w.Rows; i++ {
			v := w.Data[i*w.Cols+j]
			s += x[i] * (v * v)
		}
		out[j] = s
	}
}

// GRURef is the reference moment pass for an rnn.GRU: every gate mirrored
// textually with quadrature sigmoid/tanh moments, product-of-Gaussians
// budget propagation on moment sup-norms, and the same condEps injections
// at the activations (the only places the fast path's arithmetic diverges
// from the oracle's).
type GRURef struct {
	g          *rnn.GRU
	sigEval    func(float64) float64
	tanhEval   func(float64) float64
	sigBreaks  []float64
	tanhBreaks []float64
	sigFit     *piecewise.Func
	tanhFit    *piecewise.Func

	a1r, a2r float64
	a1u, a2u float64
	a1c, a2c float64
	a1o, a2o float64
}

// NewGRURef builds the GRU reference.
func NewGRURef(g *rnn.GRU, opts core.Options) (*GRURef, error) {
	sigF, sigEval, sigBreaks, err := seqActFit(nn.ActSigmoid, opts)
	if err != nil {
		return nil, err
	}
	tanhF, tanhEval, tanhBreaks, err := seqActFit(nn.ActTanh, opts)
	if err != nil {
		return nil, err
	}
	r := &GRURef{
		g:       g,
		sigEval: sigEval, tanhEval: tanhEval,
		sigBreaks: sigBreaks, tanhBreaks: tanhBreaks,
		sigFit: sigF, tanhFit: tanhF,
	}
	r.a1r, r.a2r = matrixNorms(g.Whr)
	r.a1u, r.a2u = matrixNorms(g.Whu)
	r.a1c, r.a2c = matrixNorms(g.Whc)
	r.a1o, r.a2o = matrixNorms(g.Wo)
	return r, nil
}

// eb is a sup-norm error bound on a (mean, variance) vector pair.
type eb struct{ m, v float64 }

// productEB bounds the error of productMoments given sup-norm bounds on the
// two inputs' values (m1, v1, m2, v2 — oracle-side magnitudes) and errors
// (e1, e2). Exact triangle-inequality propagation through
//
//	mean = m1·m2,   var = m1²·v2 + m2²·v1 + v1·v2
//
// with no linearization: |Δ(m²)| ≤ e·(2m+e) and products expand fully. The
// fast path evaluates the same float expressions on its perturbed inputs,
// so no fresh condEps is injected here.
func productEB(m1, v1 float64, e1 eb, m2, v2 float64, e2 eb) eb {
	dm := m1*e2.m + m2*e1.m + e1.m*e2.m
	dm1sq := e1.m * (2*m1 + e1.m)
	dm2sq := e2.m * (2*m2 + e2.m)
	m1sqHi := (m1 + e1.m) * (m1 + e1.m)
	m2sqHi := (m2 + e2.m) * (m2 + e2.m)
	dv := dm1sq*v2 + m1sqHi*e2.v +
		dm2sq*v1 + m2sqHi*e1.v +
		e1.v*v2 + (v1+e1.v)*e2.v
	return eb{m: dm, v: dv}
}

// supAbs returns max |x_i| and max x_i (for variance vectors, max value).
func supAbs(x tensor.Vector) float64 {
	var s float64
	for _, v := range x {
		if a := math.Abs(v); a > s {
			s = a
		}
	}
	return s
}

// ForwardCond runs the reference GRU pass and returns the conditioning
// budget for the readout moments.
func (r *GRURef) ForwardCond(xs []tensor.Vector) (core.GaussianVec, CondBudget, error) {
	g := r.g
	n := g.HiddenDim
	p := g.KeepProb
	h := core.NewGaussianVec(n)
	mMean := make(tensor.Vector, n)
	mVar := make(tensor.Vector, n)
	xr := make(tensor.Vector, n)
	xu := make(tensor.Vector, n)
	xc := make(tensor.Vector, n)
	rM := make(tensor.Vector, n)
	rV := make(tensor.Vector, n)
	uM := make(tensor.Vector, n)
	uV := make(tensor.Vector, n)
	cM := make(tensor.Vector, n)
	cV := make(tensor.Vector, n)
	rmM := make(tensor.Vector, n)
	rmV := make(tensor.Vector, n)

	hErr := eb{}
	for st, x := range xs {
		if len(x) != g.InDim {
			return core.GaussianVec{}, CondBudget{}, fmt.Errorf("oracle: gru step %d dim %d, want %d: %w", st, len(x), g.InDim, core.ErrInput)
		}
		// Masked state moments — textual mirror of the rnn engine's GRU
		// step, including its exact pass-through at keep == 1 — and the
		// error coupling of the dropout moment map.
		maxAbsMu := supAbs(h.Mean)
		if p == 1 {
			copy(mMean, h.Mean)
			copy(mVar, h.Var)
		} else {
			for j := 0; j < n; j++ {
				mu, v := h.Mean[j], h.Var[j]
				mMean[j] = p * mu
				mVar[j] = p*(mu*mu+v) - p*p*mu*mu
			}
		}
		mErr := eb{
			m: p * hErr.m,
			v: p*hErr.v + p*(1-p)*hErr.m*(2*maxAbsMu+hErr.m),
		}

		mulVecNaive(g.Wxr, x, xr)
		mulVecNaive(g.Wxu, x, xu)
		mulVecNaive(g.Wxc, x, xc)

		// r and u gates: window the masked state through the gate weights,
		// quadrature the sigmoid moments, inject at the gate scale.
		rErr := r.gateRef(xr, mMean, mVar, g.Whr, g.Br, r.sigEval, r.sigBreaks, r.sigFit, 1,
			eb{m: r.a1r * mErr.m, v: r.a2r * mErr.v}, rM, rV)
		uErr := r.gateRef(xu, mMean, mVar, g.Whu, g.Bu, r.sigEval, r.sigBreaks, r.sigFit, 1,
			eb{m: r.a1u * mErr.m, v: r.a2u * mErr.v}, uM, uV)

		// r ⊙ ĥ product moments and their budget.
		for j := 0; j < n; j++ {
			rmM[j] = rM[j] * mMean[j]
			rmV[j] = rM[j]*rM[j]*mVar[j] + mMean[j]*mMean[j]*rV[j] + rV[j]*mVar[j]
		}
		rmErr := productEB(supAbs(rM), supAbs(rV), rErr, supAbs(mMean), supAbs(mVar), mErr)

		// Candidate gate (tanh, width 2).
		cErr := r.gateRef(xc, rmM, rmV, g.Whc, g.Bc, r.tanhEval, r.tanhBreaks, r.tanhFit, 2,
			eb{m: r.a1c * rmErr.m, v: r.a2c * rmErr.v}, cM, cV)

		// h ← u⊙h + (1−u)⊙c: two products plus a sum; 1−u carries u's
		// error with the same magnitude bound.
		uhErr := productEB(supAbs(uM), supAbs(uV), uErr, supAbs(h.Mean), supAbs(h.Var), hErr)
		oneMinusU := make(tensor.Vector, n)
		for j := 0; j < n; j++ {
			oneMinusU[j] = 1 - uM[j]
		}
		ucErr := productEB(supAbs(oneMinusU), supAbs(uV), uErr, supAbs(cM), supAbs(cV), cErr)
		for j := 0; j < n; j++ {
			uhM := uM[j] * h.Mean[j]
			uhV := uM[j]*uM[j]*h.Var[j] + h.Mean[j]*h.Mean[j]*uV[j] + uV[j]*h.Var[j]
			ucM := oneMinusU[j] * cM[j]
			ucV := oneMinusU[j]*oneMinusU[j]*cV[j] + cM[j]*cM[j]*uV[j] + uV[j]*cV[j]
			h.Mean[j] = uhM + ucM
			h.Var[j] = uhV + ucV
		}
		hErr = eb{m: uhErr.m + ucErr.m, v: uhErr.v + ucErr.v}
	}

	out := core.NewGaussianVec(g.OutDim)
	mulVecNaive(g.Wo, h.Mean, out.Mean)
	mulVecSqNaive(g.Wo, h.Var, out.Var)
	for j := range out.Mean {
		out.Mean[j] += g.Bo[j]
	}
	return out, CondBudget{Mean: r.a1o * hErr.m, Var: r.a2o * hErr.v}, nil
}

// gateRef mirrors one GRU gate: pre-activation dense moments against the
// recurrent weights, quadrature activation moments into (outM, outV), and
// the activation budget step applied to the incoming pre-activation error.
func (r *GRURef) gateRef(x, inM, inV tensor.Vector, w *tensor.Matrix, b tensor.Vector,
	eval func(float64) float64, breaks []float64, fit *piecewise.Func, width float64,
	preErr eb, outM, outV tensor.Vector) eb {
	n := len(b)
	preM := make(tensor.Vector, n)
	preV := make(tensor.Vector, n)
	mulVecNaive(w, inM, preM)
	mulVecSqNaive(w, inV, preV)
	var scale float64
	for j := 0; j < n; j++ {
		m := x[j] + preM[j] + b[j]
		v := preV[j]
		if v < 0 {
			v = 0
		}
		if s := math.Abs(m) + tailSigmas*math.Sqrt(v); s > scale {
			scale = s
		}
		outM[j], outV[j] = ActMoments(eval, breaks, m, v)
	}
	dMu, dVar := actInject(preErr.m, preErr.v, scale, width, fit)
	return eb{m: dMu, v: dVar}
}

package oracle

import (
	"fmt"
	"math"

	"github.com/apdeepsense/apdeepsense/internal/core"
	"github.com/apdeepsense/apdeepsense/internal/nn"
	"github.com/apdeepsense/apdeepsense/internal/quantize"
	"github.com/apdeepsense/apdeepsense/internal/tensor"
)

// QuantBudget is a sound, a-priori absolute bound on how far the fixed-point
// propagator (internal/qprop) may drift from the oracle reference on one
// specific input and one specific quantized model:
//
//	|mean_quant − mean_oracle| ≤ rel·max(1, |mean_oracle|) + Mean
//	|var_quant  − var_oracle | ≤ rel·max(1, |var_oracle|)  + Var
//
// for the same small fixed rel the float fast paths use (internal/proptest
// pins rel = 1e-9). The budget is TOTAL: it composes the quantization error
// sources with the same floating-point conditioning allowance CondBudget
// grants the float paths, so it is the one number to compare against — do
// not add a separately-obtained CondBudget on top.
//
// Every term is computed from measured quantities, never hand-tuned:
//
//   - Weight reconstruction residuals d_ij = W_ij − s_j·q_ij (and the
//     squared-panel analogue against quantize.Layer.SquareCodes) are measured
//     exactly per layer and weighted by the reference activations actually
//     flowing through this pass.
//   - Activation quantization rounds each prepped moment by at most half the
//     dynamic per-row scale; the scale qprop will pick is bounded from the
//     reference row maxima plus the running drift (the quantized path sees
//     moments at most the running drift away from the reference ones).
//   - Float rounding of the dequantize step and the oracle's own dense sums
//     is covered by the same condEps·scale injections CondBudget uses.
//
// The drift then composes through the remaining depth with exactly the
// layer sensitivities of the conditioning recursion (Ref.forward), evaluated
// on the actual moments of this pass.
type QuantBudget struct {
	Mean, Var float64
}

// qaMax mirrors qprop.QAMax, the dynamic activation-quantization ceiling.
// Kept as a local constant so the oracle does not depend on the package
// under test; the differential suite in internal/proptest would catch a
// divergence immediately (the budget would collapse or inflate 2×).
const qaMax = 32767

// quantHeadroom covers the float rounding of computing the budget
// ingredients themselves (residual sums, norms, scale quotients): every sum
// here is a few hundred nonnegative terms, so relative error stays below
// ~1e-13 and a 1e-9 multiplicative margin is orders of magnitude of slack.
const quantHeadroom = 1 + 1e-9

// quantFloor absorbs qprop's subnormal fallback: a row whose max/QAMax
// quotient underflows quantizes at the row maximum itself (absolute error
// below ~1e-319), so an absolute floor of 1e-300 on the scale bound keeps
// the budget sound without tracking subnormal arithmetic exactly.
const quantFloor = 1e-300

// ForwardQuantCond runs the reference pass over a plain input and returns,
// alongside the oracle moments, the conditioning budget of the float fast
// paths and the total quantization budget for qm (see QuantBudget). qm must
// have been produced for the same network shape (same dims, activations and
// keep probabilities as r's network); its codes, scales and biases are taken
// as-is — the residual terms measure whatever reconstruction error they
// carry, so the budget is valid even for a model not produced by
// quantize.Quantize on r's exact weights.
func (r *Ref) ForwardQuantCond(qm *quantize.Model, x tensor.Vector) (core.GaussianVec, CondBudget, QuantBudget, error) {
	if len(x) != r.net.InputDim() {
		return core.GaussianVec{}, CondBudget{}, QuantBudget{}, fmt.Errorf("oracle: input dim %d, want %d: %w", len(x), r.net.InputDim(), core.ErrInput)
	}
	if err := r.checkQuantModel(qm); err != nil {
		return core.GaussianVec{}, CondBudget{}, QuantBudget{}, err
	}
	return r.forwardQuant(qm, core.Deterministic(x))
}

// ForwardFromQuantCond is ForwardQuantCond starting from an already-Gaussian
// input (the PropagateFrom / qprop.Run counterpart, covering degenerate σ→0
// and wide-σ inputs).
func (r *Ref) ForwardFromQuantCond(qm *quantize.Model, g core.GaussianVec) (core.GaussianVec, CondBudget, QuantBudget, error) {
	if g.Dim() != r.net.InputDim() {
		return core.GaussianVec{}, CondBudget{}, QuantBudget{}, fmt.Errorf("oracle: input dim %d, want %d: %w", g.Dim(), r.net.InputDim(), core.ErrInput)
	}
	if err := r.checkQuantModel(qm); err != nil {
		return core.GaussianVec{}, CondBudget{}, QuantBudget{}, err
	}
	return r.forwardQuant(qm, g.Clone())
}

// checkQuantModel verifies qm is structurally valid and shape-compatible
// with r's network. Weights may differ (the residuals measure that); shape,
// activation and keep probability must match or the budget recursion's
// sensitivities would be computed for the wrong propagation.
func (r *Ref) checkQuantModel(qm *quantize.Model) error {
	if qm == nil {
		return fmt.Errorf("oracle: nil quantized model: %w", core.ErrInput)
	}
	if err := qm.Validate(); err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	layers := r.net.Layers()
	if len(qm.Layers) != len(layers) {
		return fmt.Errorf("oracle: quantized model has %d layers, network %d: %w", len(qm.Layers), len(layers), core.ErrInput)
	}
	for i, l := range layers {
		q := &qm.Layers[i]
		if q.InDim != l.InDim() || q.OutDim != l.OutDim() {
			return fmt.Errorf("oracle: quantized layer %d dims %dx%d, network %dx%d: %w", i, q.InDim, q.OutDim, l.InDim(), l.OutDim(), core.ErrInput)
		}
		if q.Act != l.Act || q.KeepProb != l.KeepProb {
			return fmt.Errorf("oracle: quantized layer %d act/keep mismatch: %w", i, core.ErrInput)
		}
		// Same domain boundary qprop.New enforces: an overflowed squared
		// scale has no fixed-point propagation to bound.
		_, scales2 := q.SquareCodes()
		for j, s2 := range scales2 {
			if math.IsInf(s2, 0) {
				return fmt.Errorf("oracle: quantized layer %d squared-weight scale[%d] overflows float64: %w", i, j, core.ErrInput)
			}
		}
	}
	return nil
}

// forwardQuant is Ref.forward with a second drift recursion layered on top.
// (cMu, cVar) is the pure conditioning drift, identical to forward()'s.
// (tMu, tVar) is the TOTAL drift of the quantized path: conditioning plus
// quantization, tracked together because the dense variance sensitivity is
// superlinear in the mean drift (splitting the recursion would drop the
// cross term and undercount).
func (r *Ref) forwardQuant(qm *quantize.Model, g core.GaussianVec) (core.GaussianVec, CondBudget, QuantBudget, error) {
	// bump raises *dst to s, treating NaN as +Inf: a NaN ingredient (e.g.
	// 0·Inf from an overflowed residual against a zero activation) must
	// blow the budget up to "out of domain", never be silently dropped by
	// a false NaN comparison into a too-small finite budget.
	bump := func(dst *float64, s float64) {
		if math.IsNaN(s) {
			s = math.Inf(1)
		}
		if s > *dst {
			*dst = s
		}
	}
	var cMu, cVar float64
	var tMu, tVar float64
	for i, l := range r.net.Layers() {
		q := &qm.Layers[i]
		in, out := l.InDim(), l.OutDim()
		p := l.KeepProb

		// Incoming mean scale, read before the dense step consumes g.
		maxAbsMu := 0.0
		for _, m := range g.Mean {
			if a := math.Abs(m); a > maxAbsMu {
				maxAbsMu = a
			}
		}

		// Conditioning drift through the dense step: amplify only (the float
		// fast dense step is bit-identical to the oracle's).
		a1, a2 := weightNorms(l)
		cMu, cVar = p*a1*cMu, a2*(p*cVar+p*(1-p)*cMu*(2*maxAbsMu+cMu))

		// Total drift through the dropout prep: the quantized path's prepped
		// moments sit within (tPrepMu, tPrepVar) of the reference ones.
		tPrepMu := p * tMu
		tPrepVar := p*tVar + p*(1-p)*tMu*(2*maxAbsMu+tMu)

		// Reference prepped moments, with the SAME IEEE expression the fast
		// paths evaluate (core.propagateRows and qprop.runRow share it), so
		// the residual weighting below uses the exact values qprop would see
		// on a drift-free input.
		am := make([]float64, in)
		av := make([]float64, in)
		maxA, maxV := 0.0, 0.0
		for k := 0; k < in; k++ {
			mu, s2 := g.Mean[k], g.Var[k]
			a := mu * p
			v := (mu*mu+s2)*p - mu*mu*p*p
			am[k] = a
			av[k] = v
			bump(&maxA, math.Abs(a))
			bump(&maxV, math.Abs(v))
		}

		// Measured quantized-weight norms and residual terms, per output
		// column, sup over columns:
		//
		//	Â₁ = max_j Σ_i |s_j·q_ij|          Â₂ = max_j Σ_i s2_j·q2_ij
		//	T1 = max_j Σ_i |am_i|·|W_ij − s_j·q_ij|
		//	T2 = max_j Σ_i |av_i|·|W²_ij − s2_j·q2_ij|
		//
		// using the same derived squared panel qprop packs (SquareCodes is
		// deterministic, so the oracle reproduces qprop's effective squared
		// weights exactly) and the float path's effective W² = fl(W·W).
		codes2, scales2 := q.SquareCodes()
		var hatA1, hatA2, t1, t2, maxB, dB float64
		for j := 0; j < out; j++ {
			s := q.Scales[j]
			s2 := scales2[j]
			var sA1, sA2, sT1, sT2 float64
			for k := 0; k < in; k++ {
				w := l.W.Data[k*out+j]
				wq := float64(q.W[k*out+j]) * s
				sA1 += math.Abs(wq)
				sT1 += math.Abs(am[k]) * math.Abs(w-wq)
				w2q := float64(codes2[k*out+j]) * s2
				sA2 += w2q
				sT2 += math.Abs(av[k]) * math.Abs(w*w-w2q)
			}
			bump(&hatA1, sA1)
			bump(&hatA2, sA2)
			bump(&t1, sT1)
			bump(&t2, sT2)
			bump(&maxB, math.Abs(q.B[j]))
			bump(&dB, math.Abs(q.B[j]-l.B[j]))
		}

		// Bound the dynamic per-row scales qprop will pick: its row maxima
		// are at most the reference maxima plus the running prep drift, and
		// the subnormal fallback is absorbed by the absolute floor.
		aScaleB := ((maxA+tPrepMu)/qaMax)*quantHeadroom + quantFloor
		vScaleB := ((maxV+tPrepVar)/qaMax)*quantHeadroom + quantFloor

		// Total drift after the dense step. Decomposing the quantized dot
		// against the reference one:
		//
		//	Σ (aScale·qa_k)(s_j·q_kj) − Σ am_k·W_kj
		//	  = Σ [(aScale·qa_k) − am_k]·(s_j·q_kj)   ≤ (tPrepMu + aScaleB/2)·Â₁
		//	  + Σ am_k·[(s_j·q_kj) − W_kj]            ≤ T1
		//
		// plus the bias residual and a condEps·scale allowance for the float
		// rounding of both paths' dequantize/summation (the result magnitude
		// is bounded by mScale). The variance line is identical against the
		// squared panel; its output clamp (v < 0 → 0) is shared by both
		// paths and 1-Lipschitz, so it never grows the drift.
		mScale := (maxA+tPrepMu+aScaleB)*hatA1 + maxB
		vScale := (maxV + tPrepVar + vScaleB) * hatA2
		tMu = ((tPrepMu+aScaleB/2)*hatA1+t1)*quantHeadroom + condEps*mScale + dB
		tVar = ((tPrepVar+vScaleB/2)*hatA2+t2)*quantHeadroom + condEps*vScale

		var err error
		g, err = denseMoments(g, l, r.kahan)
		if err != nil {
			return core.GaussianVec{}, CondBudget{}, QuantBudget{}, fmt.Errorf("oracle: layer %d: %w", i, err)
		}

		// Pre-activation moment scale for the activation sensitivities, as
		// in forward(); the quantized path's own moments sit within the
		// total drift of the reference ones, so its scale is bounded by
		// scaleQ and its output range width by widthQ.
		var scale float64
		for j := range g.Mean {
			if s := math.Abs(g.Mean[j]) + tailSigmas*math.Sqrt(g.Var[j]); s > scale {
				scale = s
			}
		}
		scaleQ := scale + tMu + tailSigmas*math.Sqrt(tVar)
		f := r.pwl[i]
		width, widthQ := actWidth(l.Act, f, scale), actWidth(l.Act, f, scaleQ)

		for j := range g.Mean {
			g.Mean[j], g.Var[j] = ActMoments(r.pwlEval[i], r.breaks[i], g.Mean[j], g.Var[j])
		}

		// Identity is applied exactly by both paths (the drift only passes
		// through); every other activation's closed forms inject fresh
		// conditioning noise at the scale of the moments they consumed —
		// for the quantized path, at its (drift-shifted) scale.
		if l.Act == nn.ActIdentity {
			continue
		}
		cMu, cVar = actInject(cMu, cVar, scale, width, f)
		tMu, tVar = actInject(tMu, tVar, scaleQ, widthQ, f)
	}
	return g, CondBudget{Mean: cMu, Var: cVar}, QuantBudget{Mean: tMu, Var: tVar}, nil
}

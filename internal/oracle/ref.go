package oracle

import (
	"fmt"
	"math"

	"github.com/apdeepsense/apdeepsense/internal/core"
	"github.com/apdeepsense/apdeepsense/internal/nn"
	"github.com/apdeepsense/apdeepsense/internal/piecewise"
	"github.com/apdeepsense/apdeepsense/internal/tensor"
)

// Ref is the reference forward pass over one network: the same PWL
// activation fits the fast Propagator builds (they define the function being
// propagated), but every moment evaluated by quadrature and every matmul by
// naive loops. Construct once per network, like a Propagator.
type Ref struct {
	net *nn.Network
	// pwl holds the per-layer PWL fits, built with the same piece counts as
	// core.NewPropagator so the oracle propagates the identical function.
	pwl []*piecewise.Func
	// pwlEval are linear-scan evaluators over the pieces — independent of
	// piecewise.Func.Eval's binary search, so the oracle does not reuse the
	// lookup logic under test.
	pwlEval []func(float64) float64
	// trueAct are the exact activations (math.Tanh etc.) for the
	// model-error reference ForwardTrue.
	trueAct []func(float64) float64
	// breaks are the finite PWL knots per layer (quadrature split points).
	breaks [][]float64
	// supErr is the measured sup-norm PWL fit error per layer, the per-piece
	// bound feeding ErrorBudget.
	supErr []float64
	// kahan selects compensated dense accumulation for both forward passes.
	kahan bool
}

// NewRef builds the reference for net with the same PWL piece counts a
// core.Propagator would use. kahan selects Neumaier-compensated dense sums.
func NewRef(net *nn.Network, opts core.Options, kahan bool) (*Ref, error) {
	layers := net.Layers()
	r := &Ref{
		net:     net,
		pwl:     make([]*piecewise.Func, len(layers)),
		pwlEval: make([]func(float64) float64, len(layers)),
		trueAct: make([]func(float64) float64, len(layers)),
		breaks:  make([][]float64, len(layers)),
		supErr:  make([]float64, len(layers)),
		kahan:   kahan,
	}
	opts.TanhPieces = defaultPieces(opts.TanhPieces)
	opts.SigmoidPieces = defaultPieces(opts.SigmoidPieces)
	for i, l := range layers {
		var (
			f   *piecewise.Func
			err error
		)
		switch l.Act {
		case nn.ActIdentity:
			f = piecewise.Identity()
			r.trueAct[i] = func(x float64) float64 { return x }
		case nn.ActReLU:
			f = piecewise.ReLU()
			r.trueAct[i] = func(x float64) float64 { return math.Max(0, x) }
		case nn.ActLeakyReLU:
			f = piecewise.LeakyReLU(nn.LeakyAlpha)
			r.trueAct[i] = func(x float64) float64 {
				if x < 0 {
					return nn.LeakyAlpha * x
				}
				return x
			}
		case nn.ActTanh:
			f, err = piecewise.Tanh(opts.TanhPieces)
			r.trueAct[i] = math.Tanh
		case nn.ActSigmoid:
			f, err = piecewise.Sigmoid(opts.SigmoidPieces)
			r.trueAct[i] = func(x float64) float64 { return 1 / (1 + math.Exp(-x)) }
		default:
			err = fmt.Errorf("unsupported activation %v: %w", l.Act, core.ErrInput)
		}
		if err != nil {
			return nil, fmt.Errorf("oracle: layer %d: %w", i, err)
		}
		r.pwl[i] = f
		r.pwlEval[i] = scanEval(f.Pieces())
		for _, k := range f.Knots() {
			if !math.IsInf(k, 0) {
				r.breaks[i] = append(r.breaks[i], k)
			}
		}
		// Measured sup-norm fit error. The dense sample over ±20 covers the
		// interpolation region and enough of the tails that the remaining
		// asymptote gap beyond the window is below 1e-15 for tanh/sigmoid;
		// ReLU and identity are exactly PWL, so their error is zero.
		switch l.Act {
		case nn.ActTanh, nn.ActSigmoid:
			r.supErr[i] = f.SupError(r.trueAct[i], -20, 20, 40001)
		}
	}
	return r, nil
}

func defaultPieces(n int) int {
	if n == 0 {
		return 7
	}
	return n
}

// scanEval builds a linear-scan PWL evaluator from a piece list.
func scanEval(pieces []piecewise.Piece) func(float64) float64 {
	return func(x float64) float64 {
		for _, p := range pieces {
			if x < p.B || math.IsInf(p.B, 1) {
				return p.K*x + p.C
			}
		}
		last := pieces[len(pieces)-1]
		return last.K*x + last.C
	}
}

// PWL returns the layer-i activation fit the reference propagates (the same
// fit the fast Propagator uses).
func (r *Ref) PWL(i int) *piecewise.Func { return r.pwl[i] }

// SupErr returns the measured sup-norm PWL fit error of layer i's
// activation (zero for ReLU/identity).
func (r *Ref) SupErr(i int) float64 { return r.supErr[i] }

// CondBudget is an a-priori absolute bound on the floating-point
// conditioning error the fast path's *closed forms* may legitimately
// accumulate relative to the oracle on one specific input — distinct from
// Budget, which bounds the PWL *model* error against the exact activations.
//
// The closed forms assemble activation variances from μ²-scale second-moment
// terms and means from erf differences between adjacent knots, so at
// pre-activation moment scale S = max_j(|μ_j| + 12σ_j) they can round away
// ~eps·S (mean) and ~eps·S² (variance) per unit, where the oracle's
// standardized quadrature and centered variance pass lose only ~eps·|result|.
// The budget injects condEps·S and condEps·S² at every non-identity
// activation (condEps is hundreds of ulps — generous headroom over the
// handful of additions each closed form performs), plus the derived bounds on
// what the fast kernels' shared tail cutoff drops (TailBudget) and on the
// error of their shared-exp erf/φ terms (ErfBudget), and
// propagates the running error with the same layer sensitivities ErrorBudget
// uses, evaluated on the actual moments of this pass rather than worst-case
// assumptions.
type CondBudget struct {
	Mean, Var float64
}

// condEps converts a pre-activation moment scale into the injected per-unit
// conditioning error: ~4500 ulps, covering the piece-count × operation-count
// product of the closed forms with two orders of magnitude to spare (the
// worst observed ratio on adversarial inputs is ~3e5 below this bound).
const condEps = 1e-12

// Forward runs the reference pass over a plain input: naive dense moments
// plus quadrature moments of the PWL activations. This is the differential
// ground truth for the fast paths — it propagates the *same function* they
// do, so agreement is expected to quadrature + rounding precision, for every
// activation. Use ForwardCond to also receive the conditioning budget that
// turns that expectation into a checkable tolerance at any input scale.
func (r *Ref) Forward(x tensor.Vector) (core.GaussianVec, error) {
	g, _, err := r.ForwardCond(x)
	return g, err
}

// ForwardCond is Forward returning the conditioning budget alongside the
// moments: the fast path must match the returned moments within
// rel·max(1, |want|) + budget for a small fixed rel (internal/proptest pins
// rel = 1e-9).
func (r *Ref) ForwardCond(x tensor.Vector) (core.GaussianVec, CondBudget, error) {
	if len(x) != r.net.InputDim() {
		return core.GaussianVec{}, CondBudget{}, fmt.Errorf("oracle: input dim %d, want %d: %w", len(x), r.net.InputDim(), core.ErrInput)
	}
	return r.forward(core.Deterministic(x), r.pwlEval, r.breaks)
}

// ForwardFrom is Forward starting from an already-Gaussian input (the
// PropagateFrom counterpart, covering degenerate σ→0 and wide-σ inputs).
func (r *Ref) ForwardFrom(g core.GaussianVec) (core.GaussianVec, error) {
	out, _, err := r.ForwardFromCond(g)
	return out, err
}

// ForwardFromCond is ForwardFrom returning the conditioning budget.
func (r *Ref) ForwardFromCond(g core.GaussianVec) (core.GaussianVec, CondBudget, error) {
	if g.Dim() != r.net.InputDim() {
		return core.GaussianVec{}, CondBudget{}, fmt.Errorf("oracle: input dim %d, want %d: %w", g.Dim(), r.net.InputDim(), core.ErrInput)
	}
	return r.forward(g.Clone(), r.pwlEval, r.breaks)
}

// ForwardTrue runs the reference pass with the *exact* activations (tanh,
// logistic) instead of their PWL fits. The distance between a fast path and
// ForwardTrue is the PWL model error; ErrorBudget bounds it a priori from
// the measured per-layer sup-norm fit errors.
func (r *Ref) ForwardTrue(x tensor.Vector) (core.GaussianVec, error) {
	if len(x) != r.net.InputDim() {
		return core.GaussianVec{}, fmt.Errorf("oracle: input dim %d, want %d: %w", len(x), r.net.InputDim(), core.ErrInput)
	}
	// The rectifier kink at 0 still needs a panel split; smooth activations
	// need no splits.
	breaks := make([][]float64, len(r.pwl))
	for i, l := range r.net.Layers() {
		if l.Act == nn.ActReLU || l.Act == nn.ActLeakyReLU {
			breaks[i] = []float64{0}
		}
	}
	g, _, err := r.forward(core.Deterministic(x), r.trueAct, breaks)
	return g, err
}

func (r *Ref) forward(g core.GaussianVec, acts []func(float64) float64, breaks [][]float64) (core.GaussianVec, CondBudget, error) {
	return r.forwardFromSeed(g, acts, breaks, 0, 0)
}

// forwardFromSeed is forward with an incoming error budget already
// accumulated by an upstream stage (a conv stack or recurrence feeding this
// network as its head): the seed (dMu, dVar) is amplified and added to by
// each layer exactly as the layer-local budget recursion does for the
// running error of a standalone pass.
func (r *Ref) forwardFromSeed(g core.GaussianVec, acts []func(float64) float64, breaks [][]float64, seedMu, seedVar float64) (core.GaussianVec, CondBudget, error) {
	dMu, dVar := seedMu, seedVar
	for i, l := range r.net.Layers() {
		// Dense-step sensitivity on the running error, evaluated before the
		// step consumes the input moments: the fast dense step is
		// bit-identical to the oracle's, so it only amplifies incoming error
		// (via the row norms and the dropout input-moment map), never adds.
		maxAbsMu := 0.0
		for _, m := range g.Mean {
			if a := math.Abs(m); a > maxAbsMu {
				maxAbsMu = a
			}
		}
		p := l.KeepProb
		a1, a2 := weightNorms(l)
		dMu, dVar = p*a1*dMu, a2*(p*dVar+p*(1-p)*dMu*(2*maxAbsMu+dMu))

		var err error
		g, err = denseMoments(g, l, r.kahan)
		if err != nil {
			return core.GaussianVec{}, CondBudget{}, fmt.Errorf("oracle: layer %d: %w", i, err)
		}

		// Pre-activation moment scale S and output-range bound W for the
		// activation-step sensitivities. Bounded activations cap W at their
		// range width; relu/identity ranges follow the effective support
		// |μ| + tailSigmas·σ of the pre-activation Gaussians.
		var scale float64
		for j := range g.Mean {
			if s := math.Abs(g.Mean[j]) + tailSigmas*math.Sqrt(g.Var[j]); s > scale {
				scale = s
			}
		}
		f := r.pwl[i]
		width := actWidth(l.Act, f, scale)

		for j := range g.Mean {
			g.Mean[j], g.Var[j] = ActMoments(acts[i], breaks[i], g.Mean[j], g.Var[j])
		}

		// Identity is applied exactly by both paths: the running error only
		// passes through. Every other activation's closed forms inject fresh
		// conditioning noise at the scale of the moments they consumed.
		if l.Act == nn.ActIdentity {
			continue
		}
		dMu, dVar = actInject(dMu, dVar, scale, width, f)
	}
	return g, CondBudget{Mean: dMu, Var: dVar}, nil
}

package core

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"github.com/apdeepsense/apdeepsense/internal/piecewise"
	"github.com/apdeepsense/apdeepsense/internal/stats"
	"github.com/apdeepsense/apdeepsense/internal/tensor"
)

// GaussianBatch is a batch of B independent diagonal Gaussians over the same
// D-dimensional space, stored as a pair of B×D row-major matrices: row i of
// Mean/Var is sample i's GaussianVec. The matrix layout is what lets the
// batched propagation replace B matrix–vector products per layer with one
// blocked matrix–matrix product (X_mu W and X_var W²).
type GaussianBatch struct {
	Mean *tensor.Matrix
	Var  *tensor.Matrix
}

// NewGaussianBatch allocates a zero batch of b samples with dimension d.
func NewGaussianBatch(b, d int) GaussianBatch {
	return GaussianBatch{Mean: tensor.NewMatrix(b, d), Var: tensor.NewMatrix(b, d)}
}

// Batch returns the number of samples B.
func (g GaussianBatch) Batch() int {
	if g.Mean == nil {
		return 0
	}
	return g.Mean.Rows
}

// Dim returns the per-sample dimension D.
func (g GaussianBatch) Dim() int {
	if g.Mean == nil {
		return 0
	}
	return g.Mean.Cols
}

// Row returns sample i as a GaussianVec sharing the batch's backing storage.
func (g GaussianBatch) Row(i int) GaussianVec {
	return GaussianVec{Mean: g.Mean.Row(i), Var: g.Var.Row(i)}
}

// Rows returns all samples as GaussianVec views sharing the batch's backing
// storage.
func (g GaussianBatch) Rows() []GaussianVec {
	out := make([]GaussianVec, g.Batch())
	for i := range out {
		out[i] = g.Row(i)
	}
	return out
}

// Clone returns a deep copy.
func (g GaussianBatch) Clone() GaussianBatch {
	return GaussianBatch{Mean: g.Mean.Clone(), Var: g.Var.Clone()}
}

// DeterministicBatch stacks plain input vectors into a point-mass batch
// (variance zero), validating every row against dim. Index information is
// preserved in the error so callers can report which request in a batch was
// malformed.
func DeterministicBatch(xs []tensor.Vector, dim int) (GaussianBatch, error) {
	gb := NewGaussianBatch(len(xs), dim)
	for i, x := range xs {
		if len(x) != dim {
			return GaussianBatch{}, fmt.Errorf("batch input %d: dim %d, want %d: %w", i, len(x), dim, ErrInput)
		}
		copy(gb.Mean.Row(i), x)
	}
	return gb, nil
}

// PropagateBatch runs the full ApDeepSense pass over a batch of plain input
// vectors: the matrix-level counterpart of Propagate. All B inputs move
// through each layer together — one blocked dual-panel matrix–matrix
// product per layer instead of 2B matrix–vector passes — and the activation
// moments are applied across the batch matrix with per-layer kernels that
// share truncated-moment boundary terms between adjacent PWL pieces. Each
// output row is value-identical to Propagate on the corresponding input.
func (p *Propagator) PropagateBatch(xs []tensor.Vector) (GaussianBatch, error) {
	gb, err := DeterministicBatch(xs, p.net.InputDim())
	if err != nil {
		return GaussianBatch{}, fmt.Errorf("propagate-batch: %w", err)
	}
	return p.propagateBatch(gb, nil), nil
}

// PropagateBatchFrom is PropagateBatch starting from already-Gaussian inputs
// (e.g. a convolutional front-end's output distributions). The input batch
// is not modified.
func (p *Propagator) PropagateBatchFrom(gb GaussianBatch) (GaussianBatch, error) {
	if gb.Dim() != p.net.InputDim() {
		return GaussianBatch{}, fmt.Errorf("propagate-batch-from: input dim %d, want %d: %w", gb.Dim(), p.net.InputDim(), ErrInput)
	}
	return p.propagateBatch(gb, nil), nil
}

// MinRowsPerWorker is the smallest row chunk worth a goroutine: below this
// the per-layer work is too small for fan-out overhead to pay off. Exported
// so internal/compile can precompute chunk plans with the same fan-out rule.
const MinRowsPerWorker = 8

// propagateBatch is the one dispatch every propagation entry point goes
// through. It routes the validated batch to the installed compiled program
// (SetCompiled) when the batch fits its registered maximum, otherwise to the
// engine's row-chunk path; the two produce Float64bits-identical results. A
// non-nil trace (one row, one slot per layer; PropagateTrace) skips the
// compiled program, because only the engine can record the per-layer states.
func (p *Propagator) propagateBatch(gb GaussianBatch, trace []GaussianVec) GaussianBatch {
	b := gb.Batch()
	out := NewGaussianBatch(b, p.net.OutputDim())
	if b == 0 {
		return out
	}
	h := p.hooks.Load()
	if h != nil && h.BatchStart != nil {
		h.BatchStart(b)
	}
	if trace != nil {
		p.propagateRows(gb, out, 0, b, h, trace)
		return out
	}
	if c := p.Compiled(); c != nil && b <= c.MaxBatch() {
		c.RunBatch(gb, out, h)
		return out
	}
	p.propagateInterpreted(gb, out, h)
	return out
}

// PropagateBatchReference runs the engine's batched path unconditionally,
// bypassing any installed compiled program. It is the reference side of the
// bit-identity gate: internal/compile warms new programs against it, and
// internal/proptest compares the compiled path to it over the full corpus.
func (p *Propagator) PropagateBatchReference(gb GaussianBatch) (GaussianBatch, error) {
	if gb.Dim() != p.net.InputDim() {
		return GaussianBatch{}, fmt.Errorf("propagate-batch-reference: input dim %d, want %d: %w", gb.Dim(), p.net.InputDim(), ErrInput)
	}
	b := gb.Batch()
	out := NewGaussianBatch(b, p.net.OutputDim())
	if b == 0 {
		return out, nil
	}
	h := p.hooks.Load()
	if h != nil && h.BatchStart != nil {
		h.BatchStart(b)
	}
	p.propagateInterpreted(gb, out, h)
	return out, nil
}

// propagateInterpreted fans the batch out over row chunks. Rows are
// independent through the whole network, so the split happens once at the
// top: each worker pushes its chunk through every layer with its own pooled
// scratch buffers, maximizing weight-matrix reuse while it owns the cache.
func (p *Propagator) propagateInterpreted(gb, out GaussianBatch, h *Hooks) {
	b := gb.Batch()
	workers := p.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if max := (b + MinRowsPerWorker - 1) / MinRowsPerWorker; workers > max {
		workers = max
	}
	if workers <= 1 {
		p.propagateRows(gb, out, 0, b, h, nil)
		return
	}
	chunk := (b + workers - 1) / workers
	// Multiple-of-4 chunks keep every worker but the last on the 4-row
	// register-blocked matmul fast path.
	if chunk%4 != 0 {
		chunk += 4 - chunk%4
	}
	var wg sync.WaitGroup
	for lo := 0; lo < b; lo += chunk {
		hi := lo + chunk
		if hi > b {
			hi = b
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			p.propagateRows(gb, out, lo, hi, h, nil)
		}(lo, hi)
	}
	wg.Wait()
}

// batchScratch is one worker's reusable buffers: ping-pong mean/variance
// panels sized rows×maxDim plus the per-element boundary-term scratch of the
// activation kernel. Pooled on the Propagator so steady-state batches
// allocate nothing but their result.
type batchScratch struct {
	curMu, curVar []float64
	nxtMu, nxtVar []float64
	bounds        []stats.Boundary
	pms           []stats.PartialMoments
	// warm distinguishes a pooled buffer set (true) from a fresh sync.Pool
	// allocation, feeding the Hooks.ScratchGet hit/miss signal.
	warm bool
}

func (s *batchScratch) ensure(n, nBounds int) {
	if len(s.curMu) < n {
		s.curMu = make([]float64, n)
		s.curVar = make([]float64, n)
		s.nxtMu = make([]float64, n)
		s.nxtVar = make([]float64, n)
	}
	if len(s.bounds) < nBounds {
		s.bounds = make([]stats.Boundary, nBounds)
		s.pms = make([]stats.PartialMoments, nBounds)
	}
}

// propagateRows pushes rows [lo, hi) of in through every layer, writing the
// final Gaussians into the same rows of out. The layer step is DenseMoments
// followed by the activation kernel, element for element: dropout-aware
// input moments (eqs. 9–10), one dual-panel matmul for both moments, bias
// add, variance clamp, then the activation moments (eqs. 12–26).
//
// A non-nil trace receives a copy of every layer's post-activation row
// (rows must then be 1). That costs the untraced path one nil check per
// layer: the traced run splits the next layer's dropout prep out of the
// activation sweep, which leaves each element's operations unchanged.
//
// h is the hooks snapshot taken by propagateBatch; hooks observe timing and
// pool reuse only and never touch the numeric state, so results are
// bit-identical with or without them (TestPropagateBatchHookedBitIdentical).
func (p *Propagator) propagateRows(in, out GaussianBatch, lo, hi int, h *Hooks, trace []GaussianVec) {
	rows := hi - lo
	sc := p.scratch.Get().(*batchScratch)
	if h != nil && h.ScratchGet != nil {
		h.ScratchGet(sc.warm)
	}
	sc.warm = true
	sc.ensure(rows*p.maxDim, p.maxBounds)
	dim := in.Dim()
	copy(sc.curMu[:rows*dim], in.Mean.Data[lo*dim:hi*dim])
	copy(sc.curVar[:rows*dim], in.Var.Data[lo*dim:hi*dim])
	layers := p.net.Layers()
	// For every later layer the dropout prep is fused into the previous
	// layer's activation sweep below.
	dropoutPrep(sc.curMu[:rows*dim], sc.curVar[:rows*dim], layers[0].KeepProb)
	timed := h != nil && h.LayerTime != nil
	var t0 time.Time
	for li, l := range layers {
		if timed {
			t0 = time.Now()
		}
		nIn, nOut := l.InDim(), l.OutDim()
		mu, va := sc.nxtMu[:rows*nOut], sc.nxtVar[:rows*nOut]
		tensor.DualMulInto(p.panels[li], sc.curMu[:rows*nIn], sc.curVar[:rows*nIn], mu, va, rows)
		ak := p.kernels[li]
		if li+1 < len(layers) && trace == nil {
			ak.activate(l.B, mu, va, layers[li+1].KeepProb, sc)
		} else {
			ak.activate(l.B, mu, va, math.NaN(), sc)
			if trace != nil {
				trace[li] = GaussianVec{Mean: tensor.Vector(mu).Clone(), Var: tensor.Vector(va).Clone()}
				if li+1 < len(layers) {
					dropoutPrep(mu, va, layers[li+1].KeepProb)
				}
			}
		}
		sc.curMu, sc.nxtMu = sc.nxtMu, sc.curMu
		sc.curVar, sc.nxtVar = sc.nxtVar, sc.curVar
		if timed {
			h.LayerTime(li, rows, time.Since(t0))
		}
	}
	outDim := out.Dim()
	copy(out.Mean.Data[lo*outDim:hi*outDim], sc.curMu[:rows*outDim])
	copy(out.Var.Data[lo*outDim:hi*outDim], sc.curVar[:rows*outDim])
	p.scratch.Put(sc)
}

// dropoutPrep replaces input moments in place by the moments of x·z under
// the layer's Bernoulli(keep) dropout mask z: E[x z] = μp,
// Var[x z] = (μ²+σ²)p − μ²p².
func dropoutPrep(mu, va []float64, keep float64) {
	for t, m := range mu {
		s2 := va[t]
		mu[t] = m * keep
		va[t] = (m*m+s2)*keep - m*m*keep*keep
	}
}

// activate is one fused sweep over a layer's rows×len(bias) matmul output,
// in place: bias add, the variance clamp for floating-point cancellation
// (exactly as DenseMoments), the activation moments, and — unless nextKeep
// is NaN — the next layer's dropout prep. Fusing keeps each element's
// operation sequence identical to the separate passes while touching the
// panel once instead of four times.
func (ak *ActKernel) activate(bias, mu, va []float64, nextKeep float64, sc *batchScratch) {
	n := len(bias)
	prep := !math.IsNaN(nextKeep)
	for r := 0; r < len(mu); r += n {
		o := mu[r : r+n]
		v := va[r : r+n][:n]
		if prep {
			for j, bj := range bias {
				s2 := v[j]
				if s2 < 0 {
					s2 = 0
				}
				m, mv := ak.Moments(o[j]+bj, s2, sc.bounds, sc.pms)
				o[j] = m * nextKeep
				v[j] = (m*m+mv)*nextKeep - m*m*nextKeep*nextKeep
			}
		} else {
			for j, bj := range bias {
				s2 := v[j]
				if s2 < 0 {
					s2 = 0
				}
				o[j], v[j] = ak.Moments(o[j]+bj, s2, sc.bounds, sc.pms)
			}
		}
	}
}

// ActKernel is the batched activation-moment kernel: the same eqs. 12–26 as
// ActivationMoments, restructured for a panel of elements. The per-piece
// slopes, intercepts, and knots live in flat arrays hoisted out of the
// per-element call, and the truncated-moment boundary terms (one erf and one
// Gaussian density per knot) are computed once per knot instead of twice —
// adjacent pieces share their boundary. Moments evaluates only the knot
// window of each element: knots standardized past ±stats.TailZ carry the
// constant tail boundary, so the pieces beyond them carry exact zeros and are
// skipped. Outputs are bit-identical to ActivationMoments (see
// TestActivationKernelExact and TestKnotWindowMatchesFullAssembly).
type ActKernel struct {
	f     *piecewise.Func // point-mass fast path (f.Eval)
	knots []float64       // n+1 piece boundaries, ascending, knots[0] = −Inf, knots[n] = +Inf
	k, c  []float64       // per-piece slope and intercept
	// exact routes non-degenerate Gaussians to the closed-form rectifier
	// moments (stats.RectifiedMoments / LeakyRectifiedMoments) with slope
	// alpha instead of the PWL assembly. The point-mass shortcut is shared,
	// so exact and PWL kernels agree bit-exactly below SigmaFloor.
	exact bool
	alpha float64
}

func NewActKernel(f *piecewise.Func) *ActKernel {
	n := f.NumPieces()
	ak := &ActKernel{
		f:     f,
		knots: f.Knots(),
		k:     make([]float64, n),
		c:     make([]float64, n),
	}
	for i := 0; i < n; i++ {
		piece := f.Piece(i)
		ak.k[i] = piece.K
		ak.c[i] = piece.C
	}
	return ak
}

// NewExactActKernel builds a kernel that serves f's moments from the exact
// analytical rectifier forms instead of the PWL assembly. f must be in the
// rectifier family (piecewise.ReLU / piecewise.LeakyReLU); the PWL state is
// still prepared so Eval (point masses) and introspection keep working.
func NewExactActKernel(f *piecewise.Func) (*ActKernel, error) {
	alpha, ok := f.Rectifier()
	if !ok {
		return nil, fmt.Errorf("core: %s is not a rectifier, no exact moment form: %w", f.Name(), ErrInput)
	}
	ak := NewActKernel(f)
	ak.exact = true
	ak.alpha = alpha
	return ak, nil
}

// Exact reports whether the kernel dispatches to the exact analytical
// rectifier moments rather than the PWL closed form.
func (ak *ActKernel) Exact() bool { return ak.exact }

// ElementOps is the modeled op charge of one Moments call (see
// internal/edison): OpsPerExactMoments for the exact rectifier backend,
// otherwise the per-piece PWL charges summed over the function's pieces.
func (ak *ActKernel) ElementOps() int64 {
	if ak.exact {
		return OpsPerExactMoments
	}
	var ops int64
	for _, k := range ak.k {
		if k == 0 {
			ops += OpsPerConstPiece
		} else {
			ops += OpsPerLinearPiece
		}
	}
	return ops
}

// NumBounds returns the boundary-scratch length Moments requires — callers
// outside the propagator (the sequence paths) size their own scratch with it.
func (ak *ActKernel) NumBounds() int { return len(ak.knots) }

// Moments pushes one scalar Gaussian through the kernel, using bounds and
// pms (each at least len(knots) long) as per-worker scratch — caller-owned
// so the per-element call zeroes no stack arrays.
func (ak *ActKernel) Moments(mu, variance float64, bounds []stats.Boundary, pms []stats.PartialMoments) (outMean, outVar float64) {
	sigma := math.Sqrt(variance)
	if sigma <= SigmaFloor*(1+math.Abs(mu)) {
		// Point mass: the PWL function maps it to another point mass.
		return ak.f.Eval(mu), 0
	}
	if ak.exact {
		if ak.alpha == 0 {
			return stats.RectifiedMoments(mu, sigma)
		}
		return stats.LeakyRectifiedMoments(mu, sigma, ak.alpha)
	}

	n := len(ak.k)
	plo, phi := 0, n-1 // the live pieces
	if isFinite(mu) && isFinite(sigma) {
		// Knot window, one ascending scan: a knot at z ≤ −TailZ ends the
		// dead pieces below it, the first knot at z ≥ +TailZ starts the dead
		// pieces above it. Dead pieces lie between two constant tail
		// boundaries, so their D, M, V are exact zeros and their terms add
		// ±0 to sums that start at +0: skipping them changes no bit.
		for t := 1; t < n; t++ {
			z := (ak.knots[t] - mu) / sigma
			if z <= -stats.TailZ {
				plo = t
				continue
			}
			if z >= stats.TailZ {
				phi = t - 1
				break
			}
			bounds[t] = stats.BoundaryZ(z)
		}
		if plo == phi {
			// One live piece between two tail boundaries: D = 1, M = 0,
			// V = σ²·1, which the assembly below reduces to exactly this.
			k, c := ak.k[plo], ak.c[plo]
			return k*mu + c, k * k * (sigma * sigma * 1)
		}
		bounds[plo] = stats.Boundary{Erf: -1}
		bounds[phi+1] = stats.Boundary{Erf: 1}
	} else {
		// Non-finite moments standardize every knot, ±Inf ones included,
		// so NaN reaches erf/exp and propagates as in the reference.
		for t := 0; t <= n; t++ {
			bounds[t] = stats.BoundaryAt(ak.knots[t], mu, sigma)
		}
	}

	for i := plo; i <= phi; i++ {
		pms[i] = stats.MomentsBetween(bounds[i], bounds[i+1], sigma)
	}
	for i := plo; i <= phi; i++ {
		outMean += (ak.k[i]*mu+ak.c[i])*pms[i].D + ak.k[i]*pms[i].M
	}
	for i := plo; i <= phi; i++ {
		d := ak.k[i]*mu + ak.c[i] - outMean
		outVar += ak.k[i]*ak.k[i]*pms[i].V + 2*ak.k[i]*d*pms[i].M + d*d*pms[i].D
	}
	if outVar < 0 {
		outVar = 0
	}
	return outMean, outVar
}

// isFinite reports whether x is neither NaN nor ±Inf.
func isFinite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

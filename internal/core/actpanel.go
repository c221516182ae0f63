package core

import (
	"math"
	"math/bits"

	"github.com/apdeepsense/apdeepsense/internal/stats"
)

// The activation panel: MomentsPanel runs a row of activation moments as
// passes over groups of panelLanes units, one AVX-512 vector of float64
// per group:
//
//  1. standardize: σ = √v, the point-mass and finite masks, point masses
//     finished on the spot by a branch-free piece lookup (evalPoint), and a
//     slot for every group with a live unit. A live PWL unit's live knots
//     (|z| < TailZ, z = (x_t − μ)/σ) are packed into one array; a
//     rectifier's z = μ/σ goes to the slot.
//  2. stats.GaussTermsWindow over the packed z (stats.GaussTerms over the
//     slots' z for a rectifier) in one vector call, so the transcendental
//     pass costs only what the live knots need.
//  3. assemble: the moments of every live unit from its knots' terms, or
//     the exact rectifier moments.
//
// Lanes with a non-finite mean or σ take the scalar nonFinite afterwards,
// and a row's last len%panelLanes units run per-element Moments.
//
// The passes are written twice. The AVX-512 passes (actpanel_amd64.s) work
// on all eight lanes at once as structure-of-arrays: every knot of every
// lane is standardized (knot-major, into the slot), live knots are packed
// with VCOMPRESSPD, and every piece of every lane is assembled with dead
// knots blended to the constant tail boundary. The Go passes, the fallback
// where AVX-512 does not dispatch, work lane by lane on each group: the
// knot window of Moments (window), packed lane-major, and the live pieces
// only (assemble). Each pass pair reads only what its own partner wrote,
// and both reproduce Moments bit for bit (TestActPanelMatchesMoments and
// FuzzPanelLanes in internal/stats run every kernel selection).

// panelLanes is the group width of the panel passes.
const panelLanes = 8

// panelTile is the number of units MomentsPanel standardizes before one
// shared-exp pass: enough to fill the vector kernel, small enough that a
// tile's z, e and q arrays stay in L1.
const panelTile = 256

// ActScratch is one worker's scratch for MomentsPanel. The zero value is
// ready; buffers grow on first use and are reused after. It must not be
// shared between concurrent calls.
type ActScratch struct {
	bounds []stats.Boundary
	pms    []stats.PartialMoments
	sig    []float64 // the tile's σ, by unit
	win    [][2]int  // the Go pass's knot window (plo, phi), by unit
	// z holds one slot per group with a live unit: a rectifier's z = μ/σ
	// per lane, or, on the AVX-512 pass, every standardized knot of every
	// lane, knot-major (slot s, knot j, lane l at (s·nz + j)·panelLanes + l).
	// zc packs a PWL kernel's live knots; e and q hold the terms of zc (of z
	// for a rectifier).
	z, zc, e, q []float64
	grp         []int32   // slot → group index in the tile
	live        []uint8   // slot → its group's live-lane mask
	todo        []uint8   // group → lanes left for the scalar nonFinite
	acc         []float64 // the AVX-512 assembly's per-piece D, M, V by lane
}

// zPerLane is the number of standardized points a live lane needs: every
// interior knot for a PWL kernel, the one z = μ/σ for an exact rectifier.
func (ak *ActKernel) zPerLane() int {
	if ak.exact {
		return 1
	}
	return len(ak.knots) - 2
}

// ensure sizes the scratch for tiles of up to tile units.
func (sc *ActScratch) ensure(tile int, ak *ActKernel) {
	nKnots := len(ak.knots)
	if len(sc.bounds) < nKnots {
		sc.bounds = make([]stats.Boundary, nKnots)
		sc.pms = make([]stats.PartialMoments, nKnots)
	}
	if len(sc.sig) < tile {
		groups := (tile + panelLanes - 1) / panelLanes
		sc.sig = make([]float64, groups*panelLanes)
		sc.win = make([][2]int, groups*panelLanes)
		sc.grp = make([]int32, groups)
		sc.live = make([]uint8, groups)
		sc.todo = make([]uint8, groups)
	}
	// panelLanes of slack: the packing pass stores whole vectors, and the
	// transcendental pass runs whole vectors of the packed z.
	if n := len(sc.sig)*ak.zPerLane() + panelLanes; len(sc.z) < n {
		sc.z = make([]float64, n)
		sc.zc = make([]float64, n)
		sc.e = make([]float64, n)
		sc.q = make([]float64, n)
	}
	if n := 3 * (nKnots - 1) * panelLanes; len(sc.acc) < n {
		sc.acc = make([]float64, n)
	}
}

// MomentsPanel replaces every (mu[i], va[i]) by the activation moments of
// N(mu[i], va[i]), Float64bits-identical to Moments element by element.
// va must be at least len(mu) long. Whole groups of panelLanes units run in
// tiles of the three passes described above; the ragged end runs Moments.
func (ak *ActKernel) MomentsPanel(mu, va []float64, sc *ActScratch) {
	va = va[:len(mu)]
	whole := len(mu) &^ (panelLanes - 1)
	sc.ensure(min(whole, panelTile), ak)
	for lo := 0; lo < whole; lo += panelTile {
		hi := min(lo+panelTile, whole)
		ak.panelTile(mu[lo:hi], va[lo:hi], sc)
	}
	for i := whole; i < len(mu); i++ {
		mu[i], va[i] = ak.Moments(mu[i], va[i], sc.bounds, sc.pms)
	}
}

// panelTile runs the passes over one tile, a whole number of groups.
func (ak *ActKernel) panelTile(mu, va []float64, sc *ActScratch) {
	vec := panelVector()
	var slots, packed int
	if vec {
		slots, packed = ak.standardizeVec(mu, va, sc)
	} else {
		slots, packed = ak.standardize(mu, va, sc)
	}
	if ak.exact {
		n := slots * panelLanes
		stats.GaussTerms(sc.z[:n], sc.e[:n], sc.q[:n])
	} else {
		// Zero the packed array to whole vectors: the pad lanes cost one
		// vector step instead of the scalar remainder, and are never read.
		n := (packed + panelLanes - 1) &^ (panelLanes - 1)
		clear(sc.zc[packed:n])
		stats.GaussTermsWindow(sc.zc[:n], sc.e[:n], sc.q[:n])
	}
	switch {
	case vec:
		ak.assembleVec(mu, va, slots, sc)
	case ak.exact:
		ak.rectify(mu, va, slots, sc)
	default:
		next := 0
		for s := 0; s < slots; s++ {
			next = ak.assembleGroup(mu, va, s, next, sc)
		}
	}
	for g, left := range sc.todo[:len(mu)/panelLanes] {
		for ; left != 0; left &= left - 1 {
			i := g*panelLanes + bits.TrailingZeros8(left)
			mu[i], va[i] = ak.nonFinite(mu[i], sc.sig[i], sc.bounds, sc.pms)
		}
	}
}

// evalPoint is the activation at a point mass x: the piece whose interval
// holds x, found by one scan over the knots, with no binary search (each
// knot at or below x moves the choice up one piece; NaN fails every
// comparison and takes the last piece). The AVX-512 pass runs the same scan
// as masked blends. It equals piecewise.Func.Eval bit for bit
// (TestEvalPointMatchesEval).
func (ak *ActKernel) evalPoint(x float64) float64 {
	pc := ak.pieces[0]
	for t := 1; t < len(ak.pieces); t++ {
		if !(x < ak.knots[t]) {
			pc = ak.pieces[t]
		}
	}
	return pc.k*x + pc.c
}

// standardize is pass 1 over a tile in Go: per group, σ into sc.sig,
// point masses finished in place, non-finite PWL lanes marked in sc.todo,
// and for a group with a live unit (finite and above the point-mass floor;
// any non-point-mass unit for an exact rectifier) a slot. A rectifier
// slot holds z = μ/σ per lane (0 off the live lanes, which no later pass
// reads); a live PWL lane packs its window's live knots into sc.zc, lane by
// lane, and records the window in sc.win. It returns the number of slots
// and of packed knots.
func (ak *ActKernel) standardize(mu, va []float64, sc *ActScratch) (slots, packed int) {
	for g := 0; g < len(mu)/panelLanes; g++ {
		base := g * panelLanes
		var live, left uint8
		for l := 0; l < panelLanes; l++ {
			i := base + l
			m, s := mu[i], math.Sqrt(va[i])
			sc.sig[i] = s
			switch {
			case s <= SigmaFloor*(1+math.Abs(m)):
				mu[i], va[i] = ak.evalPoint(m), 0
			case ak.exact || isFinite(m) && isFinite(s):
				live |= 1 << l
			default:
				left |= 1 << l
			}
		}
		sc.todo[g] = left
		if live == 0 {
			continue
		}
		for l := 0; l < panelLanes; l++ {
			i := base + l
			switch {
			case ak.exact && live&(1<<l) == 0:
				sc.z[slots*panelLanes+l] = 0
			case ak.exact:
				sc.z[slots*panelLanes+l] = mu[i] / sc.sig[i]
			case live&(1<<l) != 0:
				plo, phi := ak.window(mu[i], sc.sig[i], sc.zc[packed:])
				sc.win[i] = [2]int{plo, phi}
				packed += phi - plo
			}
		}
		sc.grp[slots], sc.live[slots] = int32(g), live
		slots++
	}
	return slots, packed
}

// assembleGroup is pass 3 of one PWL slot in Go; next is the index of the
// slot's first packed knot, and it returns the next slot's. A lane whose
// window has one piece takes onePiece; any other assembles its live pieces
// from its packed boundary terms. The AVX-512 pass instead assembles every
// piece of all eight lanes at once, blending dead knots to the constant
// tail boundary; DESIGN.md §7 shows why both give the same bits.
func (ak *ActKernel) assembleGroup(mu, va []float64, s, next int, sc *ActScratch) int {
	base := int(sc.grp[s]) * panelLanes
	for l := 0; l < panelLanes; l++ {
		if sc.live[s]&(1<<l) == 0 {
			continue
		}
		i := base + l
		plo, phi := sc.win[i][0], sc.win[i][1]
		if plo == phi {
			mu[i], va[i] = ak.onePiece(plo, mu[i], sc.sig[i])
			continue
		}
		for t := plo + 1; t <= phi; t++ {
			sc.bounds[t] = stats.BoundaryFrom(sc.zc[next], sc.e[next], sc.q[next])
			next++
		}
		mu[i], va[i] = ak.assemble(mu[i], sc.sig[i], plo, phi, sc.bounds, sc.pms)
	}
	return next
}

// rectify is pass 3 of an exact rectifier: stats.RectifiedMomentsFrom on
// every live lane of every slot.
func (ak *ActKernel) rectify(mu, va []float64, slots int, sc *ActScratch) {
	for s := 0; s < slots; s++ {
		base := int(sc.grp[s]) * panelLanes
		for l := 0; l < panelLanes; l++ {
			if sc.live[s]&(1<<l) == 0 {
				continue
			}
			i, t := base+l, s*panelLanes+l
			mu[i], va[i] = stats.RectifiedMomentsFrom(mu[i], sc.sig[i], ak.alpha, sc.z[t], sc.e[t], sc.q[t])
		}
	}
}

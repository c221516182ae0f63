//go:build amd64

package core

import "github.com/apdeepsense/apdeepsense/internal/stats"

// The AVX-512 passes hard-code SigmaFloor and TailZ (and 1/√(2π), which the
// bit-identity tests pin); a change to either constant fails to compile
// here until actpanel_amd64.s is updated.
var (
	_ = [1]struct{}{}[int(SigmaFloor*1e12)-1]
	_ = [1]struct{}{}[stats.TailZ-9]
)

// panelVector reports whether the AVX-512 passes dispatch: exactly when
// stats.GaussTerms runs its AVX-512 kernel, so forcing that package's
// kernel selection in its tests forces the panel's too.
func panelVector() bool {
	_, avx512 := stats.VectorKernels()
	return avx512
}

// The passes, implemented in actpanel_amd64.s.

//go:noescape
func standardizeAVX512(mu, va, sig, z, zc *float64, groups int, knots *float64, nk int, pc *pieceCoef, grp *int32, live, todo *uint8, exact bool) (slots, packed int)

//go:noescape
func assembleAVX512(mu, va, sig, z, e, q, acc *float64, grp *int32, live *uint8, slots, nk int, pc *pieceCoef)

//go:noescape
func rectifyAVX512(mu, va, sig, z, e, q *float64, grp *int32, live *uint8, slots int, rc *rectCoef)

//go:noescape
func biasClampAVX512(mu, va, bias *float64, n int)

//go:noescape
func dropoutPrepAVX512(mu, va *float64, n int, keep float64)

// rectCoef is the slope terms of stats.RectifiedMomentsFrom: alpha
// (+0 for the plain rectifier, which takes the other branch), b = 1 − alpha,
// alpha², b² and 2·alpha·b, each rounded as in that function.
type rectCoef [5]float64

// standardizeVec is pass 1 on AVX-512: the classification, point masses,
// slots and rectifier z of standardize, but a PWL slot holds every knot of
// every lane, knot-major, and the live knots are packed in that order, the
// order assembleAVX512 reads them back in.
func (ak *ActKernel) standardizeVec(mu, va []float64, sc *ActScratch) (slots, packed int) {
	groups := len(mu) / panelLanes
	units := groups * panelLanes
	_, _, _ = va[units-1], sc.sig[units-1], sc.todo[groups-1]
	_, _ = sc.z[units*ak.zPerLane()+panelLanes-1], sc.zc[units*ak.zPerLane()+panelLanes-1]
	return standardizeAVX512(&mu[0], &va[0], &sc.sig[0], &sc.z[0], &sc.zc[0], groups,
		&ak.knots[1], len(ak.knots)-2, &ak.pieces[0], &sc.grp[0], &sc.live[0], &sc.todo[0], ak.exact)
}

// assembleVec is pass 3 on the AVX-512 pass: assembleGroup over every slot,
// or rectify for an exact kernel.
func (ak *ActKernel) assembleVec(mu, va []float64, slots int, sc *ActScratch) {
	if slots == 0 {
		return
	}
	if ak.exact {
		rc := rectCoef{0, 1, 0, 1, 0}
		if a := ak.alpha; a != 0 {
			b := 1 - a
			rc = rectCoef{a, b, a * a, b * b, 2 * a * b}
		}
		rectifyAVX512(&mu[0], &va[0], &sc.sig[0], &sc.z[0], &sc.e[0], &sc.q[0], &sc.grp[0], &sc.live[0], slots, &rc)
		return
	}
	assembleAVX512(&mu[0], &va[0], &sc.sig[0], &sc.z[0], &sc.e[0], &sc.q[0], &sc.acc[0],
		&sc.grp[0], &sc.live[0], slots, len(ak.knots)-2, &ak.pieces[0])
}

// biasClampVec is biasClamp on the AVX-512 pass; len(mu) > 0.
func biasClampVec(mu, va, bias []float64) {
	_, _ = va[len(mu)-1], bias[len(mu)-1]
	biasClampAVX512(&mu[0], &va[0], &bias[0], len(mu))
}

// dropoutPrepVec is dropoutPrep on the AVX-512 pass; len(mu) > 0.
func dropoutPrepVec(mu, va []float64, keep float64) {
	_ = va[len(mu)-1]
	dropoutPrepAVX512(&mu[0], &va[0], len(mu), keep)
}

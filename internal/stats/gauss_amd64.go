//go:build amd64

package stats

import "github.com/apdeepsense/apdeepsense/internal/cpufeat"

// useAVX2 and useAVX512 gate the vector kernels of GaussTerms on runtime
// CPU detection. They are vars so tests can force each path, including the
// scalar reference alone.
var (
	useAVX2   = cpufeat.AVX2
	useAVX512 = cpufeat.AVX512
)

// The kernels in gauss_amd64.s hard-code the coefficient counts of the
// generated table; a regenerated table of another degree fails to compile
// here until they are updated.
var (
	_ = [1]struct{}{}[len(expPoly)-12]
	_ = [1]struct{}{}[len(winP)-9]
	_ = [1]struct{}{}[len(winQ)-10]
)

// gaussAVX2 and gaussAVX512 are implemented in gauss_amd64.s.
func gaussAVX2(z, e, q *float64, n int, ep, wp, wq *float64)

func gaussAVX512(z, e, q *float64, n int, ep, wp, wq *float64)

// gaussTermsVec runs the widest available vector kernel over the longest
// prefix of z that fills whole vectors and returns its length (0 when no
// kernel is available). Lanes outside the window hold unspecified values
// that GaussTerms overwrites.
func gaussTermsVec(z, e, q []float64) int {
	var n int
	switch {
	case useAVX512:
		n = len(z) &^ 7
	case useAVX2:
		n = len(z) &^ 3
	}
	if n == 0 {
		return 0
	}
	_, _ = e[n-1], q[n-1]
	if useAVX512 {
		gaussAVX512(&z[0], &e[0], &q[0], n, &expPoly[0], &winP[0], &winQ[0])
	} else {
		gaussAVX2(&z[0], &e[0], &q[0], n, &expPoly[0], &winP[0], &winQ[0])
	}
	return n
}

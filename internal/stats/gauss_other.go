//go:build !amd64

package stats

// useAVX2 and useAVX512 mirror the amd64 build, where tests toggle them; off
// amd64 there is no vector kernel and GaussTerms runs the scalar reference.
var (
	useAVX2   = false
	useAVX512 = false
)

// gaussTermsVec covers no prefix: every lane takes the scalar reference.
func gaussTermsVec(z, e, q []float64) int { return 0 }

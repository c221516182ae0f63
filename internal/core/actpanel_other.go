//go:build !amd64

package core

// panelVector reports whether the panel's vector passes dispatch; off
// amd64 there are none and the Go passes run.
func panelVector() bool { return false }

func (ak *ActKernel) standardizeVec(mu, va []float64, sc *ActScratch) (slots, packed int) {
	panic("core: no vector activation panel on this architecture")
}

func (ak *ActKernel) assembleVec(mu, va []float64, slots int, sc *ActScratch) {
	panic("core: no vector activation panel on this architecture")
}

func biasClampVec(mu, va, bias []float64) {
	panic("core: no vector activation panel on this architecture")
}

func dropoutPrepVec(mu, va []float64, keep float64) {
	panic("core: no vector activation panel on this architecture")
}

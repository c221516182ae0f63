package stats

// SetVectorKernels forces GaussTerms, and with it the activation panel's
// AVX-512 passes, onto the given vector paths (both false: the scalar
// reference alone) and returns a function restoring the detected ones.
// Paths the CPU lacks must not be forced on.
func SetVectorKernels(avx2, avx512 bool) (restore func()) {
	saved2, saved512 := useAVX2, useAVX512
	useAVX2, useAVX512 = avx2, avx512
	return func() { useAVX2, useAVX512 = saved2, saved512 }
}

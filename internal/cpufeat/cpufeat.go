// Package cpufeat detects, once at start-up, the x86 vector extensions the
// hand-written kernels dispatch on (internal/tensor's axpy panels and
// internal/stats's shared-exp Gaussian terms). Each flag requires both the
// CPU feature bit and the OS having enabled the matching register state.
// Off amd64 every flag is false.
package cpufeat

var (
	// AVX: 256-bit float vectors (YMM state enabled).
	AVX = detectAVX()
	// AVX2: AVX plus 256-bit integer vectors.
	AVX2 = AVX && detectAVX2()
	// AVX512: AVX-512F with opmask and ZMM state enabled.
	AVX512 = AVX && detectAVX512()
)

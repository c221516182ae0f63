//go:build amd64

package cpufeat

func detectAVX() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 1 {
		return false
	}
	_, _, ecx, _ := cpuid(1, 0)
	const (
		osxsaveBit = 1 << 27
		avxBit     = 1 << 28
	)
	if ecx&osxsaveBit == 0 || ecx&avxBit == 0 {
		return false
	}
	xcr0, _ := xgetbv()
	// Bits 1 and 2: XMM and YMM register state saved/restored by the OS.
	return xcr0&0x6 == 0x6
}

// leaf7 returns cpuid(7, 0).ebx, or 0 when leaf 7 is absent.
func leaf7() uint32 {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return 0
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx
}

func detectAVX2() bool {
	const avx2Bit = 1 << 5
	return leaf7()&avx2Bit != 0
}

func detectAVX512() bool {
	const avx512fBit = 1 << 16
	if leaf7()&avx512fBit == 0 {
		return false
	}
	xcr0, _ := xgetbv()
	// Bits 5–7: opmask, upper-ZMM, and high-16-ZMM state enabled by the OS.
	return xcr0&0xe0 == 0xe0
}

// cpuid and xgetbv are implemented in cpufeat_amd64.s.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

//go:build amd64

#include "textflag.h"

// func gaussAVX2(z, e, q *float64, n int, ep, wp, wq *float64)
//
// e[i], q[i] = GaussTermsAt(z[i]) for i < n (a multiple of 4), 4 lanes per
// step. Every operation is the separately rounded IEEE multiply, add or
// subtract of the Go reference in the same order — VMULPD then VADDPD, never
// FMA — so each lane reproduces GaussTermsAt bit for bit wherever
// |z| < TailZ. ep, wp and wq point at expPoly, winP and winQ.
TEXT ·gaussAVX2(SB), NOSPLIT, $0-56
	MOVQ z+0(FP), SI
	MOVQ e+8(FP), DI
	MOVQ q+16(FP), BX
	MOVQ n+24(FP), CX
	MOVQ ep+32(FP), R8
	MOVQ wp+40(FP), R9
	MOVQ wq+48(FP), R10
	MOVQ $0x7fffffffffffffff, AX // |x| mask
	MOVQ AX, X15
	VPBROADCASTQ X15, Y15
	MOVQ $0x41a0000002000000, AX // splitC = 2^27+1
	MOVQ AX, X14
	VPBROADCASTQ X14, Y14
	MOVQ $0xbfe0000000000000, AX // -0.5
	MOVQ AX, X13
	VPBROADCASTQ X13, Y13
	MOVQ $0x3ff71547652b82fe, AX // log2e
	MOVQ AX, X12
	VPBROADCASTQ X12, Y12
	MOVQ $0x4338000000000000, AX // expMagic = 1.5·2^52
	MOVQ AX, X11
	VPBROADCASTQ X11, Y11
	MOVQ $0x3fe62e42fee00000, AX // ln2Hi
	MOVQ AX, X10
	VPBROADCASTQ X10, Y10
	MOVQ $0x3dea39ef35793c76, AX // ln2Lo
	MOVQ AX, X9
	VPBROADCASTQ X9, Y9
	MOVQ $0x00000000000003ff, AX // 1023, the exponent bias
	MOVQ AX, X8
	VPBROADCASTQ X8, Y8
	XORQ DX, DX

loop2:
	CMPQ DX, CX
	JGE  done2
	VMOVUPD 0(SI)(DX*8), Y0            // z
	VPAND Y15, Y0, Y0                  // u = |z|
	VMULPD Y0, Y0, Y1                  // hi = u·u
	VMULPD Y14, Y0, Y2                 // c = splitC·u
	VSUBPD Y0, Y2, Y3                  // c − u
	VSUBPD Y3, Y2, Y3                  // uh = c − (c − u)
	VSUBPD Y3, Y0, Y4                  // ul = u − uh
	VMULPD Y4, Y3, Y5                  // t = uh·ul
	VADDPD Y5, Y5, Y5                  // t + t
	VMULPD Y3, Y3, Y6                  // uh·uh
	VSUBPD Y1, Y6, Y6                  // uh·uh − hi
	VADDPD Y5, Y6, Y6                  // + (t + t)
	VMULPD Y4, Y4, Y7                  // ul·ul
	VADDPD Y7, Y6, Y6                  // lo
	VMULPD Y13, Y1, Y1                 // a = −0.5·hi
	VMULPD Y12, Y1, Y2                 // a·log2e
	VADDPD Y11, Y2, Y2                 // t = a·log2e + expMagic
	VSUBPD Y11, Y2, Y3                 // k = t − expMagic
	VMULPD Y10, Y3, Y4                 // k·ln2Hi
	VSUBPD Y4, Y1, Y4                  // a − k·ln2Hi
	VMULPD Y9, Y3, Y5                  // k·ln2Lo
	VSUBPD Y5, Y4, Y4                  // r = (a − k·ln2Hi) − k·ln2Lo
	VMULPD Y13, Y6, Y6                 // −0.5·lo (exact)
	VADDPD Y6, Y4, Y4                  // r = r − 0.5·lo
	VPADDQ Y8, Y2, Y2                  // bits(t) + 1023
	VPSLLQ $52, Y2, Y2                 // 2^k
	VBROADCASTSD 88(R8), Y5            // p = expPoly[11]
	VMULPD Y4, Y5, Y5
	VBROADCASTSD 80(R8), Y6
	VADDPD Y6, Y5, Y5                  // p = p·r + expPoly[10]
	VMULPD Y4, Y5, Y5
	VBROADCASTSD 72(R8), Y6
	VADDPD Y6, Y5, Y5                  // p = p·r + expPoly[9]
	VMULPD Y4, Y5, Y5
	VBROADCASTSD 64(R8), Y6
	VADDPD Y6, Y5, Y5                  // p = p·r + expPoly[8]
	VMULPD Y4, Y5, Y5
	VBROADCASTSD 56(R8), Y6
	VADDPD Y6, Y5, Y5                  // p = p·r + expPoly[7]
	VMULPD Y4, Y5, Y5
	VBROADCASTSD 48(R8), Y6
	VADDPD Y6, Y5, Y5                  // p = p·r + expPoly[6]
	VMULPD Y4, Y5, Y5
	VBROADCASTSD 40(R8), Y6
	VADDPD Y6, Y5, Y5                  // p = p·r + expPoly[5]
	VMULPD Y4, Y5, Y5
	VBROADCASTSD 32(R8), Y6
	VADDPD Y6, Y5, Y5                  // p = p·r + expPoly[4]
	VMULPD Y4, Y5, Y5
	VBROADCASTSD 24(R8), Y6
	VADDPD Y6, Y5, Y5                  // p = p·r + expPoly[3]
	VMULPD Y4, Y5, Y5
	VBROADCASTSD 16(R8), Y6
	VADDPD Y6, Y5, Y5                  // p = p·r + expPoly[2]
	VMULPD Y4, Y5, Y5
	VBROADCASTSD 8(R8), Y6
	VADDPD Y6, Y5, Y5                  // p = p·r + expPoly[1]
	VMULPD Y4, Y5, Y5
	VBROADCASTSD 0(R8), Y6
	VADDPD Y6, Y5, Y5                  // p = p·r + expPoly[0]
	VMULPD Y2, Y5, Y5                  // e = p·2^k
	VMOVUPD Y5, 0(DI)(DX*8)
	VBROADCASTSD 64(R9), Y1            // num = winP[8]
	VBROADCASTSD 72(R10), Y3           // den = winQ[9]
	VMULPD Y0, Y3, Y3
	VBROADCASTSD 64(R10), Y6
	VADDPD Y6, Y3, Y3                  // den = den·u + winQ[8]
	VMULPD Y0, Y1, Y1
	VBROADCASTSD 56(R9), Y6
	VADDPD Y6, Y1, Y1                  // num = num·u + winP[7]
	VMULPD Y0, Y3, Y3
	VBROADCASTSD 56(R10), Y6
	VADDPD Y6, Y3, Y3                  // den = den·u + winQ[7]
	VMULPD Y0, Y1, Y1
	VBROADCASTSD 48(R9), Y6
	VADDPD Y6, Y1, Y1                  // num = num·u + winP[6]
	VMULPD Y0, Y3, Y3
	VBROADCASTSD 48(R10), Y6
	VADDPD Y6, Y3, Y3                  // den = den·u + winQ[6]
	VMULPD Y0, Y1, Y1
	VBROADCASTSD 40(R9), Y6
	VADDPD Y6, Y1, Y1                  // num = num·u + winP[5]
	VMULPD Y0, Y3, Y3
	VBROADCASTSD 40(R10), Y6
	VADDPD Y6, Y3, Y3                  // den = den·u + winQ[5]
	VMULPD Y0, Y1, Y1
	VBROADCASTSD 32(R9), Y6
	VADDPD Y6, Y1, Y1                  // num = num·u + winP[4]
	VMULPD Y0, Y3, Y3
	VBROADCASTSD 32(R10), Y6
	VADDPD Y6, Y3, Y3                  // den = den·u + winQ[4]
	VMULPD Y0, Y1, Y1
	VBROADCASTSD 24(R9), Y6
	VADDPD Y6, Y1, Y1                  // num = num·u + winP[3]
	VMULPD Y0, Y3, Y3
	VBROADCASTSD 24(R10), Y6
	VADDPD Y6, Y3, Y3                  // den = den·u + winQ[3]
	VMULPD Y0, Y1, Y1
	VBROADCASTSD 16(R9), Y6
	VADDPD Y6, Y1, Y1                  // num = num·u + winP[2]
	VMULPD Y0, Y3, Y3
	VBROADCASTSD 16(R10), Y6
	VADDPD Y6, Y3, Y3                  // den = den·u + winQ[2]
	VMULPD Y0, Y1, Y1
	VBROADCASTSD 8(R9), Y6
	VADDPD Y6, Y1, Y1                  // num = num·u + winP[1]
	VMULPD Y0, Y3, Y3
	VBROADCASTSD 8(R10), Y6
	VADDPD Y6, Y3, Y3                  // den = den·u + winQ[1]
	VMULPD Y0, Y1, Y1
	VBROADCASTSD 0(R9), Y6
	VADDPD Y6, Y1, Y1                  // num = num·u + winP[0]
	VMULPD Y0, Y3, Y3
	VBROADCASTSD 0(R10), Y6
	VADDPD Y6, Y3, Y3                  // den = den·u + winQ[0]
	VDIVPD Y3, Y1, Y1                  // num/den
	VMULPD Y1, Y5, Y1                  // q = e·(num/den)
	VMOVUPD Y1, 0(BX)(DX*8)
	ADDQ $4, DX
	JMP  loop2

done2:
	VZEROUPPER
	RET

// func gaussAVX512(z, e, q *float64, n int, ep, wp, wq *float64)
//
// The ZMM form of gaussAVX2 (n a multiple of 8), with the same per-lane
// operation sequence and so the same bits. The main loop interleaves two
// independent 8-lane vectors so one's multiply-add chain fills the other's
// latency; a last odd vector runs alone.
TEXT ·gaussAVX512(SB), NOSPLIT, $0-56
	MOVQ z+0(FP), SI
	MOVQ e+8(FP), DI
	MOVQ q+16(FP), BX
	MOVQ n+24(FP), CX
	MOVQ ep+32(FP), R8
	MOVQ wp+40(FP), R9
	MOVQ wq+48(FP), R10
	MOVQ $0x7fffffffffffffff, AX // |x| mask
	VPBROADCASTQ AX, Z24
	MOVQ $0x41a0000002000000, AX // splitC = 2^27+1
	VPBROADCASTQ AX, Z25
	MOVQ $0xbfe0000000000000, AX // -0.5
	VPBROADCASTQ AX, Z26
	MOVQ $0x3ff71547652b82fe, AX // log2e
	VPBROADCASTQ AX, Z27
	MOVQ $0x4338000000000000, AX // expMagic = 1.5·2^52
	VPBROADCASTQ AX, Z28
	MOVQ $0x3fe62e42fee00000, AX // ln2Hi
	VPBROADCASTQ AX, Z29
	MOVQ $0x3dea39ef35793c76, AX // ln2Lo
	VPBROADCASTQ AX, Z30
	MOVQ $0x00000000000003ff, AX // 1023, the exponent bias
	VPBROADCASTQ AX, Z31
	XORQ DX, DX
	MOVQ CX, R11
	ANDQ $-16, R11 // end of the 16-lane loop

loop512:
	CMPQ DX, R11
	JGE  tail512
	VMOVUPD 0(SI)(DX*8), Z0            // z
	VMOVUPD 64(SI)(DX*8), Z8           // z
	VPANDQ Z24, Z0, Z0                 // u = |z|
	VPANDQ Z24, Z8, Z8                 // u = |z|
	VMULPD Z0, Z0, Z1                  // hi = u·u
	VMULPD Z8, Z8, Z9                  // hi = u·u
	VMULPD Z25, Z0, Z2                 // c = splitC·u
	VMULPD Z25, Z8, Z10                // c = splitC·u
	VSUBPD Z0, Z2, Z3                  // c − u
	VSUBPD Z8, Z10, Z11                // c − u
	VSUBPD Z3, Z2, Z3                  // uh = c − (c − u)
	VSUBPD Z11, Z10, Z11               // uh = c − (c − u)
	VSUBPD Z3, Z0, Z4                  // ul = u − uh
	VSUBPD Z11, Z8, Z12                // ul = u − uh
	VMULPD Z4, Z3, Z5                  // t = uh·ul
	VMULPD Z12, Z11, Z13               // t = uh·ul
	VADDPD Z5, Z5, Z5                  // t + t
	VADDPD Z13, Z13, Z13               // t + t
	VMULPD Z3, Z3, Z6                  // uh·uh
	VMULPD Z11, Z11, Z14               // uh·uh
	VSUBPD Z1, Z6, Z6                  // uh·uh − hi
	VSUBPD Z9, Z14, Z14                // uh·uh − hi
	VADDPD Z5, Z6, Z6                  // + (t + t)
	VADDPD Z13, Z14, Z14               // + (t + t)
	VMULPD Z4, Z4, Z7                  // ul·ul
	VMULPD Z12, Z12, Z15               // ul·ul
	VADDPD Z7, Z6, Z6                  // lo
	VADDPD Z15, Z14, Z14               // lo
	VMULPD Z26, Z1, Z1                 // a = −0.5·hi
	VMULPD Z26, Z9, Z9                 // a = −0.5·hi
	VMULPD Z27, Z1, Z2                 // a·log2e
	VMULPD Z27, Z9, Z10                // a·log2e
	VADDPD Z28, Z2, Z2                 // t = a·log2e + expMagic
	VADDPD Z28, Z10, Z10               // t = a·log2e + expMagic
	VSUBPD Z28, Z2, Z3                 // k = t − expMagic
	VSUBPD Z28, Z10, Z11               // k = t − expMagic
	VMULPD Z29, Z3, Z4                 // k·ln2Hi
	VMULPD Z29, Z11, Z12               // k·ln2Hi
	VSUBPD Z4, Z1, Z4                  // a − k·ln2Hi
	VSUBPD Z12, Z9, Z12                // a − k·ln2Hi
	VMULPD Z30, Z3, Z5                 // k·ln2Lo
	VMULPD Z30, Z11, Z13               // k·ln2Lo
	VSUBPD Z5, Z4, Z4                  // r = (a − k·ln2Hi) − k·ln2Lo
	VSUBPD Z13, Z12, Z12               // r = (a − k·ln2Hi) − k·ln2Lo
	VMULPD Z26, Z6, Z6                 // −0.5·lo (exact)
	VMULPD Z26, Z14, Z14               // −0.5·lo (exact)
	VADDPD Z6, Z4, Z4                  // r = r − 0.5·lo
	VADDPD Z14, Z12, Z12               // r = r − 0.5·lo
	VPADDQ Z31, Z2, Z2                 // bits(t) + 1023
	VPADDQ Z31, Z10, Z10               // bits(t) + 1023
	VPSLLQ $52, Z2, Z2                 // 2^k
	VPSLLQ $52, Z10, Z10               // 2^k
	VBROADCASTSD 88(R8), Z5            // p = expPoly[11]
	VBROADCASTSD 88(R8), Z13           // p = expPoly[11]
	VMULPD Z4, Z5, Z5
	VMULPD Z12, Z13, Z13
	VBROADCASTSD 80(R8), Z16
	VBROADCASTSD 80(R8), Z17
	VADDPD Z16, Z5, Z5                 // p = p·r + expPoly[10]
	VADDPD Z17, Z13, Z13               // p = p·r + expPoly[10]
	VMULPD Z4, Z5, Z5
	VMULPD Z12, Z13, Z13
	VBROADCASTSD 72(R8), Z16
	VBROADCASTSD 72(R8), Z17
	VADDPD Z16, Z5, Z5                 // p = p·r + expPoly[9]
	VADDPD Z17, Z13, Z13               // p = p·r + expPoly[9]
	VMULPD Z4, Z5, Z5
	VMULPD Z12, Z13, Z13
	VBROADCASTSD 64(R8), Z16
	VBROADCASTSD 64(R8), Z17
	VADDPD Z16, Z5, Z5                 // p = p·r + expPoly[8]
	VADDPD Z17, Z13, Z13               // p = p·r + expPoly[8]
	VMULPD Z4, Z5, Z5
	VMULPD Z12, Z13, Z13
	VBROADCASTSD 56(R8), Z16
	VBROADCASTSD 56(R8), Z17
	VADDPD Z16, Z5, Z5                 // p = p·r + expPoly[7]
	VADDPD Z17, Z13, Z13               // p = p·r + expPoly[7]
	VMULPD Z4, Z5, Z5
	VMULPD Z12, Z13, Z13
	VBROADCASTSD 48(R8), Z16
	VBROADCASTSD 48(R8), Z17
	VADDPD Z16, Z5, Z5                 // p = p·r + expPoly[6]
	VADDPD Z17, Z13, Z13               // p = p·r + expPoly[6]
	VMULPD Z4, Z5, Z5
	VMULPD Z12, Z13, Z13
	VBROADCASTSD 40(R8), Z16
	VBROADCASTSD 40(R8), Z17
	VADDPD Z16, Z5, Z5                 // p = p·r + expPoly[5]
	VADDPD Z17, Z13, Z13               // p = p·r + expPoly[5]
	VMULPD Z4, Z5, Z5
	VMULPD Z12, Z13, Z13
	VBROADCASTSD 32(R8), Z16
	VBROADCASTSD 32(R8), Z17
	VADDPD Z16, Z5, Z5                 // p = p·r + expPoly[4]
	VADDPD Z17, Z13, Z13               // p = p·r + expPoly[4]
	VMULPD Z4, Z5, Z5
	VMULPD Z12, Z13, Z13
	VBROADCASTSD 24(R8), Z16
	VBROADCASTSD 24(R8), Z17
	VADDPD Z16, Z5, Z5                 // p = p·r + expPoly[3]
	VADDPD Z17, Z13, Z13               // p = p·r + expPoly[3]
	VMULPD Z4, Z5, Z5
	VMULPD Z12, Z13, Z13
	VBROADCASTSD 16(R8), Z16
	VBROADCASTSD 16(R8), Z17
	VADDPD Z16, Z5, Z5                 // p = p·r + expPoly[2]
	VADDPD Z17, Z13, Z13               // p = p·r + expPoly[2]
	VMULPD Z4, Z5, Z5
	VMULPD Z12, Z13, Z13
	VBROADCASTSD 8(R8), Z16
	VBROADCASTSD 8(R8), Z17
	VADDPD Z16, Z5, Z5                 // p = p·r + expPoly[1]
	VADDPD Z17, Z13, Z13               // p = p·r + expPoly[1]
	VMULPD Z4, Z5, Z5
	VMULPD Z12, Z13, Z13
	VBROADCASTSD 0(R8), Z16
	VBROADCASTSD 0(R8), Z17
	VADDPD Z16, Z5, Z5                 // p = p·r + expPoly[0]
	VADDPD Z17, Z13, Z13               // p = p·r + expPoly[0]
	VMULPD Z2, Z5, Z5                  // e = p·2^k
	VMULPD Z10, Z13, Z13               // e = p·2^k
	VMOVUPD Z5, 0(DI)(DX*8)
	VMOVUPD Z13, 64(DI)(DX*8)
	VBROADCASTSD 64(R9), Z1            // num = winP[8]
	VBROADCASTSD 64(R9), Z9            // num = winP[8]
	VBROADCASTSD 72(R10), Z3           // den = winQ[9]
	VBROADCASTSD 72(R10), Z11          // den = winQ[9]
	VMULPD Z0, Z3, Z3
	VMULPD Z8, Z11, Z11
	VBROADCASTSD 64(R10), Z16
	VBROADCASTSD 64(R10), Z17
	VADDPD Z16, Z3, Z3                 // den = den·u + winQ[8]
	VADDPD Z17, Z11, Z11               // den = den·u + winQ[8]
	VMULPD Z0, Z1, Z1
	VMULPD Z8, Z9, Z9
	VBROADCASTSD 56(R9), Z16
	VBROADCASTSD 56(R9), Z17
	VADDPD Z16, Z1, Z1                 // num = num·u + winP[7]
	VADDPD Z17, Z9, Z9                 // num = num·u + winP[7]
	VMULPD Z0, Z3, Z3
	VMULPD Z8, Z11, Z11
	VBROADCASTSD 56(R10), Z16
	VBROADCASTSD 56(R10), Z17
	VADDPD Z16, Z3, Z3                 // den = den·u + winQ[7]
	VADDPD Z17, Z11, Z11               // den = den·u + winQ[7]
	VMULPD Z0, Z1, Z1
	VMULPD Z8, Z9, Z9
	VBROADCASTSD 48(R9), Z16
	VBROADCASTSD 48(R9), Z17
	VADDPD Z16, Z1, Z1                 // num = num·u + winP[6]
	VADDPD Z17, Z9, Z9                 // num = num·u + winP[6]
	VMULPD Z0, Z3, Z3
	VMULPD Z8, Z11, Z11
	VBROADCASTSD 48(R10), Z16
	VBROADCASTSD 48(R10), Z17
	VADDPD Z16, Z3, Z3                 // den = den·u + winQ[6]
	VADDPD Z17, Z11, Z11               // den = den·u + winQ[6]
	VMULPD Z0, Z1, Z1
	VMULPD Z8, Z9, Z9
	VBROADCASTSD 40(R9), Z16
	VBROADCASTSD 40(R9), Z17
	VADDPD Z16, Z1, Z1                 // num = num·u + winP[5]
	VADDPD Z17, Z9, Z9                 // num = num·u + winP[5]
	VMULPD Z0, Z3, Z3
	VMULPD Z8, Z11, Z11
	VBROADCASTSD 40(R10), Z16
	VBROADCASTSD 40(R10), Z17
	VADDPD Z16, Z3, Z3                 // den = den·u + winQ[5]
	VADDPD Z17, Z11, Z11               // den = den·u + winQ[5]
	VMULPD Z0, Z1, Z1
	VMULPD Z8, Z9, Z9
	VBROADCASTSD 32(R9), Z16
	VBROADCASTSD 32(R9), Z17
	VADDPD Z16, Z1, Z1                 // num = num·u + winP[4]
	VADDPD Z17, Z9, Z9                 // num = num·u + winP[4]
	VMULPD Z0, Z3, Z3
	VMULPD Z8, Z11, Z11
	VBROADCASTSD 32(R10), Z16
	VBROADCASTSD 32(R10), Z17
	VADDPD Z16, Z3, Z3                 // den = den·u + winQ[4]
	VADDPD Z17, Z11, Z11               // den = den·u + winQ[4]
	VMULPD Z0, Z1, Z1
	VMULPD Z8, Z9, Z9
	VBROADCASTSD 24(R9), Z16
	VBROADCASTSD 24(R9), Z17
	VADDPD Z16, Z1, Z1                 // num = num·u + winP[3]
	VADDPD Z17, Z9, Z9                 // num = num·u + winP[3]
	VMULPD Z0, Z3, Z3
	VMULPD Z8, Z11, Z11
	VBROADCASTSD 24(R10), Z16
	VBROADCASTSD 24(R10), Z17
	VADDPD Z16, Z3, Z3                 // den = den·u + winQ[3]
	VADDPD Z17, Z11, Z11               // den = den·u + winQ[3]
	VMULPD Z0, Z1, Z1
	VMULPD Z8, Z9, Z9
	VBROADCASTSD 16(R9), Z16
	VBROADCASTSD 16(R9), Z17
	VADDPD Z16, Z1, Z1                 // num = num·u + winP[2]
	VADDPD Z17, Z9, Z9                 // num = num·u + winP[2]
	VMULPD Z0, Z3, Z3
	VMULPD Z8, Z11, Z11
	VBROADCASTSD 16(R10), Z16
	VBROADCASTSD 16(R10), Z17
	VADDPD Z16, Z3, Z3                 // den = den·u + winQ[2]
	VADDPD Z17, Z11, Z11               // den = den·u + winQ[2]
	VMULPD Z0, Z1, Z1
	VMULPD Z8, Z9, Z9
	VBROADCASTSD 8(R9), Z16
	VBROADCASTSD 8(R9), Z17
	VADDPD Z16, Z1, Z1                 // num = num·u + winP[1]
	VADDPD Z17, Z9, Z9                 // num = num·u + winP[1]
	VMULPD Z0, Z3, Z3
	VMULPD Z8, Z11, Z11
	VBROADCASTSD 8(R10), Z16
	VBROADCASTSD 8(R10), Z17
	VADDPD Z16, Z3, Z3                 // den = den·u + winQ[1]
	VADDPD Z17, Z11, Z11               // den = den·u + winQ[1]
	VMULPD Z0, Z1, Z1
	VMULPD Z8, Z9, Z9
	VBROADCASTSD 0(R9), Z16
	VBROADCASTSD 0(R9), Z17
	VADDPD Z16, Z1, Z1                 // num = num·u + winP[0]
	VADDPD Z17, Z9, Z9                 // num = num·u + winP[0]
	VMULPD Z0, Z3, Z3
	VMULPD Z8, Z11, Z11
	VBROADCASTSD 0(R10), Z16
	VBROADCASTSD 0(R10), Z17
	VADDPD Z16, Z3, Z3                 // den = den·u + winQ[0]
	VADDPD Z17, Z11, Z11               // den = den·u + winQ[0]
	VDIVPD Z3, Z1, Z1                  // num/den
	VDIVPD Z11, Z9, Z9                 // num/den
	VMULPD Z1, Z5, Z1                  // q = e·(num/den)
	VMULPD Z9, Z13, Z9                 // q = e·(num/den)
	VMOVUPD Z1, 0(BX)(DX*8)
	VMOVUPD Z9, 64(BX)(DX*8)
	ADDQ $16, DX
	JMP  loop512

tail512:
	CMPQ DX, CX
	JGE  done512
	VMOVUPD 0(SI)(DX*8), Z0            // z
	VPANDQ Z24, Z0, Z0                 // u = |z|
	VMULPD Z0, Z0, Z1                  // hi = u·u
	VMULPD Z25, Z0, Z2                 // c = splitC·u
	VSUBPD Z0, Z2, Z3                  // c − u
	VSUBPD Z3, Z2, Z3                  // uh = c − (c − u)
	VSUBPD Z3, Z0, Z4                  // ul = u − uh
	VMULPD Z4, Z3, Z5                  // t = uh·ul
	VADDPD Z5, Z5, Z5                  // t + t
	VMULPD Z3, Z3, Z6                  // uh·uh
	VSUBPD Z1, Z6, Z6                  // uh·uh − hi
	VADDPD Z5, Z6, Z6                  // + (t + t)
	VMULPD Z4, Z4, Z7                  // ul·ul
	VADDPD Z7, Z6, Z6                  // lo
	VMULPD Z26, Z1, Z1                 // a = −0.5·hi
	VMULPD Z27, Z1, Z2                 // a·log2e
	VADDPD Z28, Z2, Z2                 // t = a·log2e + expMagic
	VSUBPD Z28, Z2, Z3                 // k = t − expMagic
	VMULPD Z29, Z3, Z4                 // k·ln2Hi
	VSUBPD Z4, Z1, Z4                  // a − k·ln2Hi
	VMULPD Z30, Z3, Z5                 // k·ln2Lo
	VSUBPD Z5, Z4, Z4                  // r = (a − k·ln2Hi) − k·ln2Lo
	VMULPD Z26, Z6, Z6                 // −0.5·lo (exact)
	VADDPD Z6, Z4, Z4                  // r = r − 0.5·lo
	VPADDQ Z31, Z2, Z2                 // bits(t) + 1023
	VPSLLQ $52, Z2, Z2                 // 2^k
	VBROADCASTSD 88(R8), Z5            // p = expPoly[11]
	VMULPD Z4, Z5, Z5
	VBROADCASTSD 80(R8), Z16
	VADDPD Z16, Z5, Z5                 // p = p·r + expPoly[10]
	VMULPD Z4, Z5, Z5
	VBROADCASTSD 72(R8), Z16
	VADDPD Z16, Z5, Z5                 // p = p·r + expPoly[9]
	VMULPD Z4, Z5, Z5
	VBROADCASTSD 64(R8), Z16
	VADDPD Z16, Z5, Z5                 // p = p·r + expPoly[8]
	VMULPD Z4, Z5, Z5
	VBROADCASTSD 56(R8), Z16
	VADDPD Z16, Z5, Z5                 // p = p·r + expPoly[7]
	VMULPD Z4, Z5, Z5
	VBROADCASTSD 48(R8), Z16
	VADDPD Z16, Z5, Z5                 // p = p·r + expPoly[6]
	VMULPD Z4, Z5, Z5
	VBROADCASTSD 40(R8), Z16
	VADDPD Z16, Z5, Z5                 // p = p·r + expPoly[5]
	VMULPD Z4, Z5, Z5
	VBROADCASTSD 32(R8), Z16
	VADDPD Z16, Z5, Z5                 // p = p·r + expPoly[4]
	VMULPD Z4, Z5, Z5
	VBROADCASTSD 24(R8), Z16
	VADDPD Z16, Z5, Z5                 // p = p·r + expPoly[3]
	VMULPD Z4, Z5, Z5
	VBROADCASTSD 16(R8), Z16
	VADDPD Z16, Z5, Z5                 // p = p·r + expPoly[2]
	VMULPD Z4, Z5, Z5
	VBROADCASTSD 8(R8), Z16
	VADDPD Z16, Z5, Z5                 // p = p·r + expPoly[1]
	VMULPD Z4, Z5, Z5
	VBROADCASTSD 0(R8), Z16
	VADDPD Z16, Z5, Z5                 // p = p·r + expPoly[0]
	VMULPD Z2, Z5, Z5                  // e = p·2^k
	VMOVUPD Z5, 0(DI)(DX*8)
	VBROADCASTSD 64(R9), Z1            // num = winP[8]
	VBROADCASTSD 72(R10), Z3           // den = winQ[9]
	VMULPD Z0, Z3, Z3
	VBROADCASTSD 64(R10), Z16
	VADDPD Z16, Z3, Z3                 // den = den·u + winQ[8]
	VMULPD Z0, Z1, Z1
	VBROADCASTSD 56(R9), Z16
	VADDPD Z16, Z1, Z1                 // num = num·u + winP[7]
	VMULPD Z0, Z3, Z3
	VBROADCASTSD 56(R10), Z16
	VADDPD Z16, Z3, Z3                 // den = den·u + winQ[7]
	VMULPD Z0, Z1, Z1
	VBROADCASTSD 48(R9), Z16
	VADDPD Z16, Z1, Z1                 // num = num·u + winP[6]
	VMULPD Z0, Z3, Z3
	VBROADCASTSD 48(R10), Z16
	VADDPD Z16, Z3, Z3                 // den = den·u + winQ[6]
	VMULPD Z0, Z1, Z1
	VBROADCASTSD 40(R9), Z16
	VADDPD Z16, Z1, Z1                 // num = num·u + winP[5]
	VMULPD Z0, Z3, Z3
	VBROADCASTSD 40(R10), Z16
	VADDPD Z16, Z3, Z3                 // den = den·u + winQ[5]
	VMULPD Z0, Z1, Z1
	VBROADCASTSD 32(R9), Z16
	VADDPD Z16, Z1, Z1                 // num = num·u + winP[4]
	VMULPD Z0, Z3, Z3
	VBROADCASTSD 32(R10), Z16
	VADDPD Z16, Z3, Z3                 // den = den·u + winQ[4]
	VMULPD Z0, Z1, Z1
	VBROADCASTSD 24(R9), Z16
	VADDPD Z16, Z1, Z1                 // num = num·u + winP[3]
	VMULPD Z0, Z3, Z3
	VBROADCASTSD 24(R10), Z16
	VADDPD Z16, Z3, Z3                 // den = den·u + winQ[3]
	VMULPD Z0, Z1, Z1
	VBROADCASTSD 16(R9), Z16
	VADDPD Z16, Z1, Z1                 // num = num·u + winP[2]
	VMULPD Z0, Z3, Z3
	VBROADCASTSD 16(R10), Z16
	VADDPD Z16, Z3, Z3                 // den = den·u + winQ[2]
	VMULPD Z0, Z1, Z1
	VBROADCASTSD 8(R9), Z16
	VADDPD Z16, Z1, Z1                 // num = num·u + winP[1]
	VMULPD Z0, Z3, Z3
	VBROADCASTSD 8(R10), Z16
	VADDPD Z16, Z3, Z3                 // den = den·u + winQ[1]
	VMULPD Z0, Z1, Z1
	VBROADCASTSD 0(R9), Z16
	VADDPD Z16, Z1, Z1                 // num = num·u + winP[0]
	VMULPD Z0, Z3, Z3
	VBROADCASTSD 0(R10), Z16
	VADDPD Z16, Z3, Z3                 // den = den·u + winQ[0]
	VDIVPD Z3, Z1, Z1                  // num/den
	VMULPD Z1, Z5, Z1                  // q = e·(num/den)
	VMOVUPD Z1, 0(BX)(DX*8)

done512:
	VZEROUPPER
	RET

//go:build amd64

#include "textflag.h"

// func axpy4AVX(x0, x1, x2, x3 float64, w *float64, n int, d0, d1, d2, d3 *float64)
//
// d_r[j] += x_r * w[j] for four destination rows at once, 4 doubles per
// step. Uses VMULPD + VADDPD (two separately rounded IEEE operations per
// element) instead of FMA so every lane matches the scalar Go loop bit for
// bit. The broadcast of each x value amortises one w load across four rows.
TEXT ·axpy4AVX(SB), NOSPLIT, $0-80
	VBROADCASTSD x0+0(FP), Y0  // x0 in all lanes
	VBROADCASTSD x1+8(FP), Y1
	VBROADCASTSD x2+16(FP), Y2
	VBROADCASTSD x3+24(FP), Y3
	MOVQ w+32(FP), SI
	MOVQ n+40(FP), CX
	MOVQ d0+48(FP), R8
	MOVQ d1+56(FP), R9
	MOVQ d2+64(FP), R10
	MOVQ d3+72(FP), R11
	XORQ DX, DX             // j
	MOVQ CX, BX
	ANDQ $-4, BX            // BX = n & ^3: last index of the 4-wide loop

loop4:
	CMPQ DX, BX
	JGE  tail
	VMOVUPD (SI)(DX*8), Y4  // w[j:j+4]
	VMULPD  Y4, Y0, Y5
	VADDPD  (R8)(DX*8), Y5, Y5
	VMOVUPD Y5, (R8)(DX*8)  // d0[j:j+4] += x0*w
	VMULPD  Y4, Y1, Y6
	VADDPD  (R9)(DX*8), Y6, Y6
	VMOVUPD Y6, (R9)(DX*8)
	VMULPD  Y4, Y2, Y7
	VADDPD  (R10)(DX*8), Y7, Y7
	VMOVUPD Y7, (R10)(DX*8)
	VMULPD  Y4, Y3, Y8
	VADDPD  (R11)(DX*8), Y8, Y8
	VMOVUPD Y8, (R11)(DX*8)
	ADDQ    $4, DX
	JMP     loop4

tail:
	CMPQ DX, CX
	JGE  done
	VMOVSD (SI)(DX*8), X4   // scalar remainder, still VEX-encoded
	VMULSD X4, X0, X5
	VADDSD (R8)(DX*8), X5, X5
	VMOVSD X5, (R8)(DX*8)
	VMULSD X4, X1, X6
	VADDSD (R9)(DX*8), X6, X6
	VMOVSD X6, (R9)(DX*8)
	VMULSD X4, X2, X7
	VADDSD (R10)(DX*8), X7, X7
	VMOVSD X7, (R10)(DX*8)
	VMULSD X4, X3, X8
	VADDSD (R11)(DX*8), X8, X8
	VMOVSD X8, (R11)(DX*8)
	INCQ   DX
	JMP    tail

done:
	VZEROUPPER
	RET

// func axpy4AVX512(x0, x1, x2, x3 float64, w *float64, n int, d0, d1, d2, d3 *float64)
//
// The 8-wide ZMM variant of axpy4AVX: identical per-lane multiply-then-add
// sequence, twice the elements per store. Remainders fall through to a
// 4-wide YMM step and then the scalar tail.
TEXT ·axpy4AVX512(SB), NOSPLIT, $0-80
	VBROADCASTSD x0+0(FP), Z0
	VBROADCASTSD x1+8(FP), Z1
	VBROADCASTSD x2+16(FP), Z2
	VBROADCASTSD x3+24(FP), Z3
	MOVQ w+32(FP), SI
	MOVQ n+40(FP), CX
	MOVQ d0+48(FP), R8
	MOVQ d1+56(FP), R9
	MOVQ d2+64(FP), R10
	MOVQ d3+72(FP), R11
	XORQ DX, DX             // j
	MOVQ CX, BX
	ANDQ $-8, BX            // BX = n & ^7: last index of the 8-wide loop

loop8:
	CMPQ DX, BX
	JGE  tail4z
	VMOVUPD (SI)(DX*8), Z4  // w[j:j+8]
	VMULPD  Z4, Z0, Z5
	VADDPD  (R8)(DX*8), Z5, Z5
	VMOVUPD Z5, (R8)(DX*8)  // d0[j:j+8] += x0*w
	VMULPD  Z4, Z1, Z6
	VADDPD  (R9)(DX*8), Z6, Z6
	VMOVUPD Z6, (R9)(DX*8)
	VMULPD  Z4, Z2, Z7
	VADDPD  (R10)(DX*8), Z7, Z7
	VMOVUPD Z7, (R10)(DX*8)
	VMULPD  Z4, Z3, Z8
	VADDPD  (R11)(DX*8), Z8, Z8
	VMOVUPD Z8, (R11)(DX*8)
	ADDQ    $8, DX
	JMP     loop8

tail4z:
	MOVQ CX, BX
	ANDQ $-4, BX            // one optional 4-wide step covers n&4
	CMPQ DX, BX
	JGE  tail1z
	VMOVUPD (SI)(DX*8), Y4
	VMULPD  Y4, Y0, Y5
	VADDPD  (R8)(DX*8), Y5, Y5
	VMOVUPD Y5, (R8)(DX*8)
	VMULPD  Y4, Y1, Y6
	VADDPD  (R9)(DX*8), Y6, Y6
	VMOVUPD Y6, (R9)(DX*8)
	VMULPD  Y4, Y2, Y7
	VADDPD  (R10)(DX*8), Y7, Y7
	VMOVUPD Y7, (R10)(DX*8)
	VMULPD  Y4, Y3, Y8
	VADDPD  (R11)(DX*8), Y8, Y8
	VMOVUPD Y8, (R11)(DX*8)
	ADDQ    $4, DX

tail1z:
	CMPQ DX, CX
	JGE  done512
	VMOVSD (SI)(DX*8), X4
	VMULSD X4, X0, X5
	VADDSD (R8)(DX*8), X5, X5
	VMOVSD X5, (R8)(DX*8)
	VMULSD X4, X1, X6
	VADDSD (R9)(DX*8), X6, X6
	VMOVSD X6, (R9)(DX*8)
	VMULSD X4, X2, X7
	VADDSD (R10)(DX*8), X7, X7
	VMOVSD X7, (R10)(DX*8)
	VMULSD X4, X3, X8
	VADDSD (R11)(DX*8), X8, X8
	VMOVSD X8, (R11)(DX*8)
	INCQ   DX
	JMP    tail1z

done512:
	VZEROUPPER
	RET

// func axpyDualAVX(xm, xv float64, wm, wv *float64, n int, dm, dv *float64)
//
// Single-row dual-moment axpy: dm[j] += xm * wm[j] and dv[j] += xv * wv[j],
// 4 doubles per step. The compiled propagator's tail rows (and every
// batch-1 request) use it to run the mean and variance accumulations of one
// sample in one vector pass; mulBlocked's scalar tail has no vector kernel
// because it cannot assume the dual-row layout. Like axpy4AVX it uses
// separate VMULPD + VADDPD (no FMA) so every lane is the exact rounded
// multiply-then-add of the scalar Go loop.
TEXT ·axpyDualAVX(SB), NOSPLIT, $0-56
	VBROADCASTSD xm+0(FP), Y0
	VBROADCASTSD xv+8(FP), Y1
	MOVQ wm+16(FP), SI
	MOVQ wv+24(FP), DI
	MOVQ n+32(FP), CX
	MOVQ dm+40(FP), R8
	MOVQ dv+48(FP), R9
	XORQ DX, DX             // j
	MOVQ CX, BX
	ANDQ $-4, BX            // BX = n & ^3: last index of the 4-wide loop

dloop4:
	CMPQ DX, BX
	JGE  dtail
	VMOVUPD (SI)(DX*8), Y4  // wm[j:j+4]
	VMULPD  Y4, Y0, Y5
	VADDPD  (R8)(DX*8), Y5, Y5
	VMOVUPD Y5, (R8)(DX*8)  // dm[j:j+4] += xm*wm
	VMOVUPD (DI)(DX*8), Y6  // wv[j:j+4]
	VMULPD  Y6, Y1, Y7
	VADDPD  (R9)(DX*8), Y7, Y7
	VMOVUPD Y7, (R9)(DX*8)  // dv[j:j+4] += xv*wv
	ADDQ    $4, DX
	JMP     dloop4

dtail:
	CMPQ DX, CX
	JGE  ddone
	VMOVSD (SI)(DX*8), X4   // scalar remainder, still VEX-encoded
	VMULSD X4, X0, X5
	VADDSD (R8)(DX*8), X5, X5
	VMOVSD X5, (R8)(DX*8)
	VMOVSD (DI)(DX*8), X6
	VMULSD X6, X1, X7
	VADDSD (R9)(DX*8), X7, X7
	VMOVSD X7, (R9)(DX*8)
	INCQ   DX
	JMP    dtail

ddone:
	VZEROUPPER
	RET

// func axpyDualAVX512(xm, xv float64, wm, wv *float64, n int, dm, dv *float64)
//
// The 8-wide ZMM variant of axpyDualAVX: identical per-lane multiply-then-
// add sequence, twice the elements per store. Remainders fall through to a
// 4-wide YMM step and then the scalar tail.
TEXT ·axpyDualAVX512(SB), NOSPLIT, $0-56
	VBROADCASTSD xm+0(FP), Z0
	VBROADCASTSD xv+8(FP), Z1
	MOVQ wm+16(FP), SI
	MOVQ wv+24(FP), DI
	MOVQ n+32(FP), CX
	MOVQ dm+40(FP), R8
	MOVQ dv+48(FP), R9
	XORQ DX, DX             // j
	MOVQ CX, BX
	ANDQ $-8, BX            // BX = n & ^7: last index of the 8-wide loop

dloop8:
	CMPQ DX, BX
	JGE  dtail4z
	VMOVUPD (SI)(DX*8), Z4  // wm[j:j+8]
	VMULPD  Z4, Z0, Z5
	VADDPD  (R8)(DX*8), Z5, Z5
	VMOVUPD Z5, (R8)(DX*8)  // dm[j:j+8] += xm*wm
	VMOVUPD (DI)(DX*8), Z6  // wv[j:j+8]
	VMULPD  Z6, Z1, Z7
	VADDPD  (R9)(DX*8), Z7, Z7
	VMOVUPD Z7, (R9)(DX*8)  // dv[j:j+8] += xv*wv
	ADDQ    $8, DX
	JMP     dloop8

dtail4z:
	MOVQ CX, BX
	ANDQ $-4, BX            // one optional 4-wide step covers n&4
	CMPQ DX, BX
	JGE  dtail1z
	VMOVUPD (SI)(DX*8), Y4
	VMULPD  Y4, Y0, Y5
	VADDPD  (R8)(DX*8), Y5, Y5
	VMOVUPD Y5, (R8)(DX*8)
	VMOVUPD (DI)(DX*8), Y6
	VMULPD  Y6, Y1, Y7
	VADDPD  (R9)(DX*8), Y7, Y7
	VMOVUPD Y7, (R9)(DX*8)
	ADDQ    $4, DX

dtail1z:
	CMPQ DX, CX
	JGE  ddone512
	VMOVSD (SI)(DX*8), X4
	VMULSD X4, X0, X5
	VADDSD (R8)(DX*8), X5, X5
	VMOVSD X5, (R8)(DX*8)
	VMOVSD (DI)(DX*8), X6
	VMULSD X6, X1, X7
	VADDSD (R9)(DX*8), X7, X7
	VMOVSD X7, (R9)(DX*8)
	INCQ   DX
	JMP    dtail1z

ddone512:
	VZEROUPPER
	RET

// func axpy4DualAVX(x0, x1, x2, x3, y0, y1, y2, y3 float64, wm, wv *float64, n int, dm0, dm1, dm2, dm3, dv0, dv1, dv2, dv3 *float64)
//
// The 4-row dual-moment kernel: dm_r[j] += x_r * wm[j] and
// dv_r[j] += y_r * wv[j] for r in 0..3 in one pass. The compiled
// propagator's register-blocked sweep uses it to touch each packed panel
// stripe once for both moments (mulBlocked must make two passes, W then W²)
// and to pay one call per k-step instead of two. Separate VMULPD + VADDPD
// per lane as everywhere else: bit-identical to the scalar loops.
TEXT ·axpy4DualAVX(SB), NOSPLIT, $0-152
	VBROADCASTSD x0+0(FP), Y0
	VBROADCASTSD x1+8(FP), Y1
	VBROADCASTSD x2+16(FP), Y2
	VBROADCASTSD x3+24(FP), Y3
	VBROADCASTSD y0+32(FP), Y4
	VBROADCASTSD y1+40(FP), Y5
	VBROADCASTSD y2+48(FP), Y6
	VBROADCASTSD y3+56(FP), Y7
	MOVQ wm+64(FP), SI
	MOVQ wv+72(FP), DI
	MOVQ n+80(FP), CX
	MOVQ dm0+88(FP), R8
	MOVQ dm1+96(FP), R9
	MOVQ dm2+104(FP), R10
	MOVQ dm3+112(FP), R11
	MOVQ dv0+120(FP), R12
	MOVQ dv1+128(FP), R13
	MOVQ dv2+136(FP), R15
	MOVQ dv3+144(FP), AX
	XORQ DX, DX             // j
	MOVQ CX, BX
	ANDQ $-4, BX            // BX = n & ^3: last index of the 4-wide loop

qloop4:
	CMPQ DX, BX
	JGE  qtail
	VMOVUPD (SI)(DX*8), Y8  // wm[j:j+4]
	VMULPD  Y8, Y0, Y10
	VADDPD  (R8)(DX*8), Y10, Y10
	VMOVUPD Y10, (R8)(DX*8)
	VMULPD  Y8, Y1, Y11
	VADDPD  (R9)(DX*8), Y11, Y11
	VMOVUPD Y11, (R9)(DX*8)
	VMULPD  Y8, Y2, Y12
	VADDPD  (R10)(DX*8), Y12, Y12
	VMOVUPD Y12, (R10)(DX*8)
	VMULPD  Y8, Y3, Y13
	VADDPD  (R11)(DX*8), Y13, Y13
	VMOVUPD Y13, (R11)(DX*8)
	VMOVUPD (DI)(DX*8), Y9  // wv[j:j+4]
	VMULPD  Y9, Y4, Y10
	VADDPD  (R12)(DX*8), Y10, Y10
	VMOVUPD Y10, (R12)(DX*8)
	VMULPD  Y9, Y5, Y11
	VADDPD  (R13)(DX*8), Y11, Y11
	VMOVUPD Y11, (R13)(DX*8)
	VMULPD  Y9, Y6, Y12
	VADDPD  (R15)(DX*8), Y12, Y12
	VMOVUPD Y12, (R15)(DX*8)
	VMULPD  Y9, Y7, Y13
	VADDPD  (AX)(DX*8), Y13, Y13
	VMOVUPD Y13, (AX)(DX*8)
	ADDQ    $4, DX
	JMP     qloop4

qtail:
	CMPQ DX, CX
	JGE  qdone
	VMOVSD (SI)(DX*8), X8
	VMULSD X8, X0, X10
	VADDSD (R8)(DX*8), X10, X10
	VMOVSD X10, (R8)(DX*8)
	VMULSD X8, X1, X11
	VADDSD (R9)(DX*8), X11, X11
	VMOVSD X11, (R9)(DX*8)
	VMULSD X8, X2, X12
	VADDSD (R10)(DX*8), X12, X12
	VMOVSD X12, (R10)(DX*8)
	VMULSD X8, X3, X13
	VADDSD (R11)(DX*8), X13, X13
	VMOVSD X13, (R11)(DX*8)
	VMOVSD (DI)(DX*8), X9
	VMULSD X9, X4, X10
	VADDSD (R12)(DX*8), X10, X10
	VMOVSD X10, (R12)(DX*8)
	VMULSD X9, X5, X11
	VADDSD (R13)(DX*8), X11, X11
	VMOVSD X11, (R13)(DX*8)
	VMULSD X9, X6, X12
	VADDSD (R15)(DX*8), X12, X12
	VMOVSD X12, (R15)(DX*8)
	VMULSD X9, X7, X13
	VADDSD (AX)(DX*8), X13, X13
	VMOVSD X13, (AX)(DX*8)
	INCQ   DX
	JMP    qtail

qdone:
	VZEROUPPER
	RET

// func axpy4DualAVX512(x0, x1, x2, x3, y0, y1, y2, y3 float64, wm, wv *float64, n int, dm0, dm1, dm2, dm3, dv0, dv1, dv2, dv3 *float64)
//
// The 8-wide ZMM variant of axpy4DualAVX. Remainders fall through to a
// 4-wide YMM step and then the scalar tail.
TEXT ·axpy4DualAVX512(SB), NOSPLIT, $0-152
	VBROADCASTSD x0+0(FP), Z0
	VBROADCASTSD x1+8(FP), Z1
	VBROADCASTSD x2+16(FP), Z2
	VBROADCASTSD x3+24(FP), Z3
	VBROADCASTSD y0+32(FP), Z4
	VBROADCASTSD y1+40(FP), Z5
	VBROADCASTSD y2+48(FP), Z6
	VBROADCASTSD y3+56(FP), Z7
	MOVQ wm+64(FP), SI
	MOVQ wv+72(FP), DI
	MOVQ n+80(FP), CX
	MOVQ dm0+88(FP), R8
	MOVQ dm1+96(FP), R9
	MOVQ dm2+104(FP), R10
	MOVQ dm3+112(FP), R11
	MOVQ dv0+120(FP), R12
	MOVQ dv1+128(FP), R13
	MOVQ dv2+136(FP), R15
	MOVQ dv3+144(FP), AX
	XORQ DX, DX             // j
	MOVQ CX, BX
	ANDQ $-8, BX            // BX = n & ^7: last index of the 8-wide loop

qloop8:
	CMPQ DX, BX
	JGE  qtail4z
	VMOVUPD (SI)(DX*8), Z8  // wm[j:j+8]
	VMULPD  Z8, Z0, Z10
	VADDPD  (R8)(DX*8), Z10, Z10
	VMOVUPD Z10, (R8)(DX*8)
	VMULPD  Z8, Z1, Z11
	VADDPD  (R9)(DX*8), Z11, Z11
	VMOVUPD Z11, (R9)(DX*8)
	VMULPD  Z8, Z2, Z12
	VADDPD  (R10)(DX*8), Z12, Z12
	VMOVUPD Z12, (R10)(DX*8)
	VMULPD  Z8, Z3, Z13
	VADDPD  (R11)(DX*8), Z13, Z13
	VMOVUPD Z13, (R11)(DX*8)
	VMOVUPD (DI)(DX*8), Z9  // wv[j:j+8]
	VMULPD  Z9, Z4, Z10
	VADDPD  (R12)(DX*8), Z10, Z10
	VMOVUPD Z10, (R12)(DX*8)
	VMULPD  Z9, Z5, Z11
	VADDPD  (R13)(DX*8), Z11, Z11
	VMOVUPD Z11, (R13)(DX*8)
	VMULPD  Z9, Z6, Z12
	VADDPD  (R15)(DX*8), Z12, Z12
	VMOVUPD Z12, (R15)(DX*8)
	VMULPD  Z9, Z7, Z13
	VADDPD  (AX)(DX*8), Z13, Z13
	VMOVUPD Z13, (AX)(DX*8)
	ADDQ    $8, DX
	JMP     qloop8

qtail4z:
	MOVQ CX, BX
	ANDQ $-4, BX            // one optional 4-wide step covers n&4
	CMPQ DX, BX
	JGE  qtail1z
	VMOVUPD (SI)(DX*8), Y8
	VMULPD  Y8, Y0, Y10
	VADDPD  (R8)(DX*8), Y10, Y10
	VMOVUPD Y10, (R8)(DX*8)
	VMULPD  Y8, Y1, Y11
	VADDPD  (R9)(DX*8), Y11, Y11
	VMOVUPD Y11, (R9)(DX*8)
	VMULPD  Y8, Y2, Y12
	VADDPD  (R10)(DX*8), Y12, Y12
	VMOVUPD Y12, (R10)(DX*8)
	VMULPD  Y8, Y3, Y13
	VADDPD  (R11)(DX*8), Y13, Y13
	VMOVUPD Y13, (R11)(DX*8)
	VMOVUPD (DI)(DX*8), Y9
	VMULPD  Y9, Y4, Y10
	VADDPD  (R12)(DX*8), Y10, Y10
	VMOVUPD Y10, (R12)(DX*8)
	VMULPD  Y9, Y5, Y11
	VADDPD  (R13)(DX*8), Y11, Y11
	VMOVUPD Y11, (R13)(DX*8)
	VMULPD  Y9, Y6, Y12
	VADDPD  (R15)(DX*8), Y12, Y12
	VMOVUPD Y12, (R15)(DX*8)
	VMULPD  Y9, Y7, Y13
	VADDPD  (AX)(DX*8), Y13, Y13
	VMOVUPD Y13, (AX)(DX*8)
	ADDQ    $4, DX

qtail1z:
	CMPQ DX, CX
	JGE  qdone512
	VMOVSD (SI)(DX*8), X8
	VMULSD X8, X0, X10
	VADDSD (R8)(DX*8), X10, X10
	VMOVSD X10, (R8)(DX*8)
	VMULSD X8, X1, X11
	VADDSD (R9)(DX*8), X11, X11
	VMOVSD X11, (R9)(DX*8)
	VMULSD X8, X2, X12
	VADDSD (R10)(DX*8), X12, X12
	VMOVSD X12, (R10)(DX*8)
	VMULSD X8, X3, X13
	VADDSD (R11)(DX*8), X13, X13
	VMOVSD X13, (R11)(DX*8)
	VMOVSD (DI)(DX*8), X9
	VMULSD X9, X4, X10
	VADDSD (R12)(DX*8), X10, X10
	VMOVSD X10, (R12)(DX*8)
	VMULSD X9, X5, X11
	VADDSD (R13)(DX*8), X11, X11
	VMOVSD X11, (R13)(DX*8)
	VMULSD X9, X6, X12
	VADDSD (R15)(DX*8), X12, X12
	VMOVSD X12, (R15)(DX*8)
	VMULSD X9, X7, X13
	VADDSD (AX)(DX*8), X13, X13
	VMOVSD X13, (AX)(DX*8)
	INCQ   DX
	JMP    qtail1z

qdone512:
	VZEROUPPER
	RET

// func axpyAVX(x float64, w *float64, n int, d *float64)
//
// Single-row axpy: d[j] += x * w[j], 4 doubles per step — mulBlocked's rows
// past the last multiple of 4 (every one-row product). Separate VMULPD +
// VADDPD as everywhere else: bit-identical to the scalar Go loop.
TEXT ·axpyAVX(SB), NOSPLIT, $0-32
	VBROADCASTSD x+0(FP), Y0
	MOVQ w+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ d+24(FP), R8
	XORQ DX, DX             // j
	MOVQ CX, BX
	ANDQ $-4, BX            // BX = n & ^3: last index of the 4-wide loop

sloop4:
	CMPQ DX, BX
	JGE  stail
	VMOVUPD (SI)(DX*8), Y4  // w[j:j+4]
	VMULPD  Y4, Y0, Y5
	VADDPD  (R8)(DX*8), Y5, Y5
	VMOVUPD Y5, (R8)(DX*8)  // d[j:j+4] += x*w
	ADDQ    $4, DX
	JMP     sloop4

stail:
	CMPQ DX, CX
	JGE  sdone
	VMOVSD (SI)(DX*8), X4
	VMULSD X4, X0, X5
	VADDSD (R8)(DX*8), X5, X5
	VMOVSD X5, (R8)(DX*8)
	INCQ   DX
	JMP    stail

sdone:
	VZEROUPPER
	RET

// func axpyAVX512(x float64, w *float64, n int, d *float64)
//
// The 8-wide ZMM variant of axpyAVX: one optional 4-wide step, then the
// scalar tail.
TEXT ·axpyAVX512(SB), NOSPLIT, $0-32
	VBROADCASTSD x+0(FP), Z0
	MOVQ w+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ d+24(FP), R8
	XORQ DX, DX             // j
	MOVQ CX, BX
	ANDQ $-8, BX            // BX = n & ^7: last index of the 8-wide loop

sloop8:
	CMPQ DX, BX
	JGE  stail4z
	VMOVUPD (SI)(DX*8), Z4  // w[j:j+8]
	VMULPD  Z4, Z0, Z5
	VADDPD  (R8)(DX*8), Z5, Z5
	VMOVUPD Z5, (R8)(DX*8)  // d[j:j+8] += x*w
	ADDQ    $8, DX
	JMP     sloop8

stail4z:
	MOVQ CX, BX
	ANDQ $-4, BX
	CMPQ DX, BX
	JGE  stail1z
	VMOVUPD (SI)(DX*8), Y4
	VMULPD  Y4, Y0, Y5
	VADDPD  (R8)(DX*8), Y5, Y5
	VMOVUPD Y5, (R8)(DX*8)
	ADDQ    $4, DX

stail1z:
	CMPQ DX, CX
	JGE  sdone512
	VMOVSD (SI)(DX*8), X4
	VMULSD X4, X0, X5
	VADDSD (R8)(DX*8), X5, X5
	VMOVSD X5, (R8)(DX*8)
	INCQ   DX
	JMP    stail1z

sdone512:
	VZEROUPPER
	RET

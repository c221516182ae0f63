//go:build amd64

#include "textflag.h"

// The AVX-512 passes of the activation panel (actpanel.go): each ZMM lane
// runs the per-element reference's operations (ActKernel.Moments and the
// stats functions it calls) on one unit, in their order, as separately
// rounded IEEE multiplies, adds, subtracts, divides and square roots —
// never FMA. The assembly also adds the dead pieces' terms, which are ±0
// and change no bit (DESIGN.md §7), so every lane reproduces Moments bit
// for bit. Lane selections are opmask blends, never branches. Only
// AVX-512F is used.

// func standardizeAVX512(mu, va, sig, z, zc *float64, groups int, knots *float64, nk int, pc *pieceCoef, grp *int32, live, todo *uint8, exact bool) (slots, packed int)
//
// Pass 1 (standardizeVec) over groups×8 units. knots points at the nk
// interior knots; pc at the nk+1 pieces {k, c, kk, k2}. A PWL slot holds
// every knot of every lane, knot-major; its live knots are packed into zc
// with VCOMPRESSPD, one whole vector stored per knot at the packed count
// (zc has a vector of slack).
TEXT ·standardizeAVX512(SB), NOSPLIT, $0-120
	MOVQ mu+0(FP), SI
	MOVQ va+8(FP), DI
	MOVQ sig+16(FP), R8
	MOVQ z+24(FP), R9
	MOVQ groups+40(FP), CX
	SHLQ $3, CX                    // end unit
	MOVQ knots+48(FP), R10
	MOVQ pc+64(FP), R12
	XORQ R15, R15                  // slots
	MOVQ $0, packed+112(FP)
	MOVQ $0x7fffffffffffffff, AX   // |x| mask
	VPBROADCASTQ AX, Z31
	MOVQ $0x3ff0000000000000, AX   // 1
	VPBROADCASTQ AX, Z30
	MOVQ $0x3d719799812dea11, AX   // SigmaFloor = 1e-12
	VPBROADCASTQ AX, Z29
	MOVQ $0x7ff0000000000000, AX   // +Inf
	VPBROADCASTQ AX, Z28
	VPXORQ Z27, Z27, Z27           // +0
	MOVQ $0xc022000000000000, AX   // −TailZ
	VPBROADCASTQ AX, Z26
	MOVQ $0x4022000000000000, AX   // +TailZ
	VPBROADCASTQ AX, Z25
	XORQ DX, DX                    // unit

group:
	CMPQ DX, CX
	JGE  done
	MOVBQZX exact+96(FP), R13
	VMOVUPD (SI)(DX*8), Z0         // m
	VSQRTPD (DI)(DX*8), Z1         // s = √v
	VMOVUPD Z1, (R8)(DX*8)
	VPANDQ  Z31, Z0, Z2            // |m|
	VADDPD  Z30, Z2, Z3            // 1 + |m|
	VMULPD  Z29, Z3, Z3            // SigmaFloor·(1 + |m|)
	VCMPPD  $2, Z3, Z1, K1         // point mass: s ≤ SigmaFloor·(1 + |m|)
	VCMPPD  $1, Z28, Z2, K2        // |m| < +Inf
	VCMPPD  $1, Z28, Z1, K3        // s < +Inf
	KANDW   K2, K3, K2             // finite
	TESTQ   R13, R13
	JZ      classify
	KXNORW  K2, K2, K2             // a rectifier takes every unit but point masses

classify:
	KANDNW  K2, K1, K3             // live = finite &^ point mass
	KORW    K1, K2, K4
	KMOVW   K4, AX
	NOTL    AX                     // neither: the scalar nonFinite's lanes
	MOVQ    DX, BX
	SHRQ    $3, BX                 // group
	MOVQ    todo+88(FP), R11
	MOVB    AX, (R11)(BX*1)

	// Point masses: k·m + c of the piece holding m, variance 0.
	KORTESTW K1, K1
	JZ       stdz
	VBROADCASTSD 0(R12), Z4        // k[0]
	VBROADCASTSD 8(R12), Z5        // c[0]
	MOVQ    nk+56(FP), R11
	XORQ    AX, AX
	MOVQ    R12, BX

evalknot:
	CMPQ    AX, R11
	JGE     evaldone
	VBROADCASTSD (R10)(AX*8), Z6
	VCMPPD  $5, Z6, Z0, K5         // !(m < knot), true for NaN
	VBROADCASTSD 32(BX), K5, Z4    // the next piece's k
	VBROADCASTSD 40(BX), K5, Z5    // and c
	ADDQ    $32, BX
	INCQ    AX
	JMP     evalknot

evaldone:
	VMULPD  Z0, Z4, Z4             // k·m
	VADDPD  Z5, Z4, Z4             // + c
	VMOVUPD Z4, K1, (SI)(DX*8)
	VMOVUPD Z27, K1, (DI)(DX*8)

stdz:
	KORTESTW K3, K3
	JZ       next
	TESTQ    R13, R13
	JZ       stdknots
	VDIVPD.Z Z1, Z0, K3, Z6        // z = m/s, 0 off the live lanes
	VMOVUPD  Z6, (R9)
	ADDQ     $64, R9
	JMP      slot

stdknots:
	MOVQ    nk+56(FP), R11
	MOVQ    zc+32(FP), R13
	MOVQ    packed+112(FP), BX
	XORQ    AX, AX

knot:
	CMPQ    AX, R11
	JGE     knotsdone
	VBROADCASTSD (R10)(AX*8), Z6
	VSUBPD  Z0, Z6, Z6             // knot − m
	VDIVPD  Z1, Z6, Z6             // z = (knot − m)/s
	VMOVUPD Z6, (R9)
	ADDQ    $64, R9
	VCMPPD  $14, Z26, Z6, K5       // z > −TailZ
	VCMPPD  $1, Z25, Z6, K6        // z < TailZ
	KANDW   K5, K6, K5
	KANDW   K3, K5, K5             // a live knot of a live unit
	VCOMPRESSPD Z6, K5, Z7
	VMOVUPD Z7, (R13)(BX*8)
	KMOVW   K5, R14
	POPCNTL R14, R14
	ADDQ    R14, BX
	INCQ    AX
	JMP     knot

knotsdone:
	MOVQ    BX, packed+112(FP)

slot:
	MOVQ    DX, BX
	SHRQ    $3, BX                 // group
	MOVQ    grp+72(FP), R11
	MOVL    BX, (R11)(R15*4)
	KMOVW   K3, AX
	MOVQ    live+80(FP), R11
	MOVB    AX, (R11)(R15*1)
	INCQ    R15

next:
	ADDQ $8, DX
	JMP  group

done:
	MOVQ R15, slots+104(FP)
	VZEROUPPER
	RET

// func assembleAVX512(mu, va, sig, z, e, q, acc *float64, grp *int32, live *uint8, slots, nk int, pc *pieceCoef)
//
// Pass 3 of a PWL kernel over every slot, e and q holding the packed terms
// of the live knots (VEXPANDPD puts them back in their lanes): the
// boundary at each knot with dead knots blended to the tail constants, the
// partial moments of every piece (kept in acc for the variance sum), the
// mean and centered variance sums, the one-piece closed form for lanes with
// no live knot, and a store of the live lanes.
TEXT ·assembleAVX512(SB), NOSPLIT, $0-96
	MOVQ mu+0(FP), SI
	MOVQ va+8(FP), DI
	MOVQ sig+16(FP), R8
	MOVQ z+24(FP), R9
	MOVQ e+32(FP), R10
	MOVQ q+40(FP), R11
	MOVQ pc+88(FP), R12
	MOVQ nk+80(FP), R15
	SHLQ $5, R15                   // byte offset of the last piece
	MOVQ $0x8000000000000000, AX   // sign bit
	VPBROADCASTQ AX, Z24
	MOVQ $0x3fd9884533d43651, AX   // 1/√(2π)
	VPBROADCASTQ AX, Z25
	MOVQ $0xc022000000000000, AX   // −TailZ
	VPBROADCASTQ AX, Z26
	MOVQ $0x4022000000000000, AX   // +TailZ
	VPBROADCASTQ AX, Z27
	VPXORQ Z28, Z28, Z28           // +0
	MOVQ $0x3fe0000000000000, AX   // 0.5
	VPBROADCASTQ AX, Z29
	MOVQ $0xbff0000000000000, AX   // −1
	VPBROADCASTQ AX, Z30
	MOVQ $0x3ff0000000000000, AX   // 1
	VPBROADCASTQ AX, Z31
	XORQ BX, BX                    // byte offset into z
	XORQ CX, CX                    // slot

aslot:
	CMPQ CX, slots+72(FP)
	JGE  adone
	MOVQ    grp+56(FP), AX
	MOVLQSX (AX)(CX*4), DX
	SHLQ    $3, DX                 // the slot's first unit
	MOVQ    live+64(FP), AX
	MOVBQZX (AX)(CX*1), AX
	KMOVW   AX, K7
	MOVQ    acc+48(FP), R13
	VMOVUPD (SI)(DX*8), Z0         // m
	VMOVUPD (R8)(DX*8), Z1         // s
	VMULPD  Z1, Z1, Z2             // s·s
	VMOVAPD Z30, Z3                // lower boundary: Erf −1,
	VPXORQ  Z4, Z4, Z4             // φ 0,
	VPXORQ  Z5, Z5, Z5             // zφ 0
	KXORW   K6, K6, K6             // lanes with a live knot
	VBROADCASTSD 0(R12), Z8        // one-piece k,
	VBROADCASTSD 8(R12), Z9        // c,
	VBROADCASTSD 16(R12), Z10      // kk
	VPXORQ  Z11, Z11, Z11          // mean
	XORQ    AX, AX                 // byte offset of piece i

apiece:
	CMPQ AX, R15
	JEQ  atail
	VMOVUPD (R9)(BX*1), Z12        // z
	ADDQ    $64, BX
	VCMPPD  $2, Z26, Z12, K1       // dead below: z ≤ −TailZ
	VCMPPD  $13, Z27, Z12, K2      // dead above: z ≥ TailZ
	KORW    K1, K2, K3
	KNOTW   K3, K4                 // live knot
	KORW    K4, K6, K6
	KANDW   K7, K4, K5             // live knots of live units take
	VEXPANDPD (R10), K5, Z13       // the next packed e
	VEXPANDPD (R11), K5, Z14       // and q
	KMOVW   K5, R14
	POPCNTL R14, R14
	SHLQ    $3, R14
	ADDQ    R14, R10
	ADDQ    R14, R11
	VSUBPD  Z14, Z31, Z15          // 1 − q
	VPANDNQ Z15, Z24, Z15          // with z's sign:
	VPANDQ  Z24, Z12, Z16
	VPORQ   Z16, Z15, Z15          // Erf = Copysign(1 − q, z)
	VMOVAPD Z30, K1, Z15           // dead below: −1
	VMOVAPD Z31, K2, Z15           // dead above: +1
	VMULPD.Z Z25, Z13, K4, Z16     // φ = e/√(2π), 0 when dead
	VMULPD.Z Z16, Z12, K4, Z17     // zφ, 0 when dead
	VBROADCASTSD 32(R12)(AX*1), K1, Z8   // dead below moves the
	VBROADCASTSD 40(R12)(AX*1), K1, Z9   // one-piece choice up
	VBROADCASTSD 48(R12)(AX*1), K1, Z10
	JMP     amoments

atail:
	VMOVAPD Z31, Z15               // upper boundary at +Inf: Erf 1,
	VPXORQ  Z16, Z16, Z16          // φ 0,
	VPXORQ  Z17, Z17, Z17          // zφ 0

amoments:
	VSUBPD  Z3, Z15, Z18           // hi.Erf − lo.Erf
	VMULPD  Z29, Z18, Z18          // D = 0.5·(…)
	VSUBPD  Z16, Z4, Z19           // lo.Phi − hi.Phi
	VMULPD  Z19, Z1, Z19           // M = s·(…)
	VADDPD  Z5, Z18, Z20           // D + lo.ZPhi
	VSUBPD  Z17, Z20, Z20          // − hi.ZPhi
	VMULPD  Z20, Z2, Z20           // V = s·s·(…)
	VCMPPD  $1, Z28, Z20, K5
	VMOVAPD Z28, K5, Z20           // V < 0 → 0
	VCMPPD  $1, Z28, Z18, K5
	VMOVAPD Z28, K5, Z18           // D < 0 → 0
	VMOVUPD Z18, 0(R13)
	VMOVUPD Z19, 64(R13)
	VMOVUPD Z20, 128(R13)
	ADDQ    $192, R13
	VBROADCASTSD 0(R12)(AX*1), Z21 // k
	VMULPD  Z0, Z21, Z22           // k·m
	VBROADCASTSD 8(R12)(AX*1), Z23 // c
	VADDPD  Z23, Z22, Z22          // k·m + c
	VMULPD  Z18, Z22, Z22          // (k·m + c)·D
	VMULPD  Z19, Z21, Z21          // k·M
	VADDPD  Z21, Z22, Z22
	VADDPD  Z22, Z11, Z11          // mean += …
	VMOVAPD Z15, Z3                // this upper boundary is the next lower
	VMOVAPD Z16, Z4
	VMOVAPD Z17, Z5
	CMPQ    AX, R15
	JEQ     avariance
	ADDQ    $32, AX
	JMP     apiece

avariance:
	MOVQ    acc+48(FP), R13
	XORQ    AX, AX
	VPXORQ  Z12, Z12, Z12          // variance

avpiece:
	VMOVUPD 0(R13), Z18            // D
	VMOVUPD 64(R13), Z19           // M
	VMOVUPD 128(R13), Z20          // V
	ADDQ    $192, R13
	VBROADCASTSD 0(R12)(AX*1), Z21 // k
	VMULPD  Z0, Z21, Z22           // k·m
	VBROADCASTSD 8(R12)(AX*1), Z23 // c
	VADDPD  Z23, Z22, Z22          // k·m + c
	VSUBPD  Z11, Z22, Z22          // d = k·m + c − mean
	VBROADCASTSD 16(R12)(AX*1), Z23
	VMULPD  Z20, Z23, Z23          // kk·V
	VBROADCASTSD 24(R12)(AX*1), Z21
	VMULPD  Z22, Z21, Z21          // k2·d
	VMULPD  Z19, Z21, Z21          // k2·d·M
	VADDPD  Z21, Z23, Z23
	VMULPD  Z22, Z22, Z21          // d·d
	VMULPD  Z18, Z21, Z21          // d·d·D
	VADDPD  Z21, Z23, Z23
	VADDPD  Z23, Z12, Z12          // variance += …
	CMPQ    AX, R15
	JEQ     afinish
	ADDQ    $32, AX
	JMP     avpiece

afinish:
	VCMPPD  $1, Z28, Z12, K5
	VMOVAPD Z28, K5, Z12           // variance < 0 → 0
	KNOTW   K6, K5                 // no live knot: the one-piece form
	VMULPD  Z0, Z8, Z13            // k·m
	VADDPD  Z9, Z13, Z13           // + c
	VMOVAPD Z13, K5, Z11
	VMULPD  Z2, Z10, Z13           // kk·(s·s)
	VMOVAPD Z13, K5, Z12
	VMOVUPD Z11, K7, (SI)(DX*8)
	VMOVUPD Z12, K7, (DI)(DX*8)
	INCQ    CX
	JMP     aslot

adone:
	VZEROUPPER
	RET

// func rectifyAVX512(mu, va, sig, z, e, q *float64, grp *int32, live *uint8, slots int, rc *rectCoef)
//
// Pass 3 of an exact rectifier: stats.RectifiedMomentsFrom on every live
// lane of every slot, rc holding {alpha, 1 − alpha, alpha², (1 − alpha)²,
// 2·alpha·(1 − alpha)}.
TEXT ·rectifyAVX512(SB), NOSPLIT, $0-80
	MOVQ mu+0(FP), SI
	MOVQ va+8(FP), DI
	MOVQ sig+16(FP), R8
	MOVQ z+24(FP), R9
	MOVQ e+32(FP), R10
	MOVQ q+40(FP), R11
	MOVQ rc+72(FP), R12
	MOVQ 0(R12), R13               // alpha's bits: 0 is the plain ReLU
	VBROADCASTSD 0(R12), Z3        // alpha
	VBROADCASTSD 8(R12), Z4        // b = 1 − alpha
	VBROADCASTSD 16(R12), Z5       // alpha·alpha
	VBROADCASTSD 24(R12), Z6       // b·b
	VBROADCASTSD 32(R12), Z7       // 2·alpha·b
	MOVQ $0x3fd9884533d43651, AX   // 1/√(2π)
	VPBROADCASTQ AX, Z25
	VPXORQ Z28, Z28, Z28           // +0
	MOVQ $0x3fe0000000000000, AX   // 0.5
	VPBROADCASTQ AX, Z29
	MOVQ $0x3ff0000000000000, AX   // 1
	VPBROADCASTQ AX, Z31
	XORQ BX, BX                    // byte offset into z, e, q
	XORQ CX, CX                    // slot

rslot:
	CMPQ CX, slots+64(FP)
	JGE  rdone
	MOVQ    grp+48(FP), AX
	MOVLQSX (AX)(CX*4), DX
	SHLQ    $3, DX
	MOVQ    live+56(FP), AX
	MOVBQZX (AX)(CX*1), AX
	KMOVW   AX, K7
	VMOVUPD (SI)(DX*8), Z0         // m
	VMOVUPD (R8)(DX*8), Z1         // s
	VMOVUPD (R9)(BX*1), Z12        // z
	VMOVUPD (R10)(BX*1), Z13       // e
	VMOVUPD (R11)(BX*1), Z14       // q
	ADDQ    $64, BX
	VMULPD  Z29, Z14, Z15          // tail = 0.5·q
	VSUBPD  Z15, Z31, Z16          // bulk = 1 − tail
	VPCMPQ  $1, Z28, Z12, K1       // z's sign bit
	VMOVAPD Z16, Z17
	VMOVAPD Z15, K1, Z17           // cdf
	VMOVAPD Z15, Z18
	VMOVAPD Z16, K1, Z18           // cdfC
	VMULPD  Z25, Z13, Z19          // pdf = e/√(2π)
	VMULPD  Z17, Z0, Z20           // m·cdf
	VMULPD  Z19, Z1, Z21           // s·pdf
	VADDPD  Z21, Z20, Z20          // relu mean
	VMULPD  Z12, Z12, Z21          // z·z
	VMULPD  Z17, Z21, Z21          // ·cdf
	VMULPD  Z18, Z21, Z21          // ·cdfC
	VADDPD  Z21, Z17, Z21          // cdf + …
	VMULPD  Z19, Z12, Z22          // z·pdf
	VSUBPD  Z17, Z18, Z23          // cdfC − cdf
	VMULPD  Z23, Z22, Z22
	VADDPD  Z22, Z21, Z21          // + z·pdf·(cdfC − cdf)
	VMULPD  Z19, Z19, Z22          // pdf·pdf
	VSUBPD  Z22, Z21, Z21          // relu variance/σ²
	VCMPPD  $1, Z28, Z21, K2
	VMOVAPD Z28, K2, Z21           // < 0 → 0
	VMULPD  Z1, Z1, Z2             // s·s
	TESTQ   R13, R13
	JNZ     rleaky
	VMULPD  Z21, Z2, Z21           // variance = s·s·v
	JMP     rstore

rleaky:
	VMULPD  Z0, Z3, Z22            // alpha·m
	VMULPD  Z20, Z4, Z23           // b·mean
	VADDPD  Z23, Z22, Z20          // mean = alpha·m + b·mean
	VMULPD  Z21, Z6, Z22           // b·b·v
	VADDPD  Z22, Z5, Z22           // alpha·alpha + …
	VMULPD  Z17, Z7, Z23           // 2·alpha·b·cdf
	VADDPD  Z23, Z22, Z22
	VMULPD  Z22, Z2, Z21           // variance = s·s·(…)

rstore:
	VMOVUPD Z20, K7, (SI)(DX*8)
	VMOVUPD Z21, K7, (DI)(DX*8)
	INCQ    CX
	JMP     rslot

rdone:
	VZEROUPPER
	RET

// func biasClampAVX512(mu, va, bias *float64, n int)
//
// The activation step's prologue: mu[j] += bias[j], and va[j] = 0 where
// va[j] < 0 (the variance clamp). The last n%8 elements run one masked step.
TEXT ·biasClampAVX512(SB), NOSPLIT, $0-32
	MOVQ mu+0(FP), SI
	MOVQ va+8(FP), DI
	MOVQ bias+16(FP), R8
	MOVQ n+24(FP), CX
	VPXORQ Z3, Z3, Z3              // +0
	XORQ DX, DX
	MOVQ CX, BX
	ANDQ $-8, BX

bloop:
	CMPQ DX, BX
	JGE  btail
	VMOVUPD (SI)(DX*8), Z0
	VADDPD  (R8)(DX*8), Z0, Z0     // mu + bias
	VMOVUPD Z0, (SI)(DX*8)
	VMOVUPD (DI)(DX*8), Z1
	VCMPPD  $1, Z3, Z1, K1         // va < 0
	VMOVUPD Z3, K1, (DI)(DX*8)
	ADDQ    $8, DX
	JMP     bloop

btail:
	SUBQ DX, CX                    // remaining elements, 0–7
	JZ   bdone
	MOVL $1, AX
	SHLL CX, AX
	DECL AX
	KMOVW AX, K2
	VMOVUPD.Z (SI)(DX*8), K2, Z0
	VMOVUPD.Z (R8)(DX*8), K2, Z2
	VADDPD  Z2, Z0, Z0
	VMOVUPD Z0, K2, (SI)(DX*8)
	VMOVUPD.Z (DI)(DX*8), K2, Z1
	VCMPPD  $1, Z3, Z1, K1
	KANDW   K2, K1, K1
	VMOVUPD Z3, K1, (DI)(DX*8)

bdone:
	VZEROUPPER
	RET

// func dropoutPrepAVX512(mu, va *float64, n int, keep float64)
//
// dropoutPrep: mu[j] = m·keep and va[j] = (m·m + s2)·keep − m·m·keep·keep
// for m = mu[j], s2 = va[j], in the Go expression's order. The last n%8
// elements run one masked step.
TEXT ·dropoutPrepAVX512(SB), NOSPLIT, $0-32
	MOVQ mu+0(FP), SI
	MOVQ va+8(FP), DI
	MOVQ n+16(FP), CX
	VBROADCASTSD keep+24(FP), Z4
	XORQ DX, DX
	MOVQ CX, BX
	ANDQ $-8, BX

ploop:
	CMPQ DX, BX
	JGE  ptail
	VMOVUPD (SI)(DX*8), Z0         // m
	VMOVUPD (DI)(DX*8), Z1         // s2
	VMULPD  Z4, Z0, Z2             // m·keep
	VMULPD  Z0, Z0, Z5             // m·m
	VADDPD  Z1, Z5, Z6             // m·m + s2
	VMULPD  Z4, Z6, Z6             // (m·m + s2)·keep
	VMULPD  Z4, Z5, Z5             // m·m·keep
	VMULPD  Z4, Z5, Z5             // m·m·keep·keep
	VSUBPD  Z5, Z6, Z6
	VMOVUPD Z2, (SI)(DX*8)
	VMOVUPD Z6, (DI)(DX*8)
	ADDQ    $8, DX
	JMP     ploop

ptail:
	SUBQ DX, CX                    // remaining elements, 0–7
	JZ   pdone
	MOVL $1, AX
	SHLL CX, AX
	DECL AX
	KMOVW AX, K2
	VMOVUPD.Z (SI)(DX*8), K2, Z0
	VMOVUPD.Z (DI)(DX*8), K2, Z1
	VMULPD  Z4, Z0, Z2
	VMULPD  Z0, Z0, Z5
	VADDPD  Z1, Z5, Z6
	VMULPD  Z4, Z6, Z6
	VMULPD  Z4, Z5, Z5
	VMULPD  Z4, Z5, Z5
	VSUBPD  Z5, Z6, Z6
	VMOVUPD Z2, K2, (SI)(DX*8)
	VMOVUPD Z6, K2, (DI)(DX*8)

pdone:
	VZEROUPPER
	RET

#include "textflag.h"

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func adamAVX2(p, g, m, v []float64, b1, c1, b2, c2, lr, bc1, bc2, eps float64)
//
// Four parameters a step, then one, each evaluated as adamGeneric does:
//	m' = b1*m + c1*g
//	v' = b2*v + (c2*g)*g
//	p' = p - (lr*(m'/bc1)) / (sqrt(v'/bc2) + eps)
TEXT ·adamAVX2(SB), NOSPLIT, $0-160
	MOVQ p_base+0(FP), DI
	MOVQ p_len+8(FP), CX
	MOVQ g_base+24(FP), SI
	MOVQ m_base+48(FP), BX
	MOVQ v_base+72(FP), R8
	VBROADCASTSD b1+96(FP), Y8
	VBROADCASTSD c1+104(FP), Y9
	VBROADCASTSD b2+112(FP), Y10
	VBROADCASTSD c2+120(FP), Y11
	VBROADCASTSD lr+128(FP), Y12
	VBROADCASTSD bc1+136(FP), Y13
	VBROADCASTSD bc2+144(FP), Y14
	VBROADCASTSD eps+152(FP), Y15
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-4, DX

adam4:
	CMPQ AX, DX
	JGE  adam1
	VMOVUPD (SI)(AX*8), Y0
	VMULPD  (BX)(AX*8), Y8, Y1
	VMULPD  Y0, Y9, Y2
	VADDPD  Y2, Y1, Y1
	VMOVUPD Y1, (BX)(AX*8)
	VMULPD  (R8)(AX*8), Y10, Y3
	VMULPD  Y0, Y11, Y4
	VMULPD  Y0, Y4, Y4
	VADDPD  Y4, Y3, Y3
	VMOVUPD Y3, (R8)(AX*8)
	VDIVPD  Y13, Y1, Y1
	VMULPD  Y1, Y12, Y1
	VDIVPD  Y14, Y3, Y3
	VSQRTPD Y3, Y3
	VADDPD  Y15, Y3, Y3
	VDIVPD  Y3, Y1, Y1
	VMOVUPD (DI)(AX*8), Y5
	VSUBPD  Y1, Y5, Y5
	VMOVUPD Y5, (DI)(AX*8)
	ADDQ    $4, AX
	JMP     adam4

adam1:
	CMPQ AX, CX
	JGE  adamdone
	VMOVSD  (SI)(AX*8), X0
	VMULSD  (BX)(AX*8), X8, X1
	VMULSD  X0, X9, X2
	VADDSD  X2, X1, X1
	VMOVSD  X1, (BX)(AX*8)
	VMULSD  (R8)(AX*8), X10, X3
	VMULSD  X0, X11, X4
	VMULSD  X0, X4, X4
	VADDSD  X4, X3, X3
	VMOVSD  X3, (R8)(AX*8)
	VDIVSD  X13, X1, X1
	VMULSD  X1, X12, X1
	VDIVSD  X14, X3, X3
	VSQRTSD X3, X3, X3
	VADDSD  X15, X3, X3
	VDIVSD  X3, X1, X1
	VMOVSD  (DI)(AX*8), X5
	VSUBSD  X1, X5, X5
	VMOVSD  X5, (DI)(AX*8)
	INCQ    AX
	JMP     adam1

adamdone:
	VZEROUPPER
	RET

// func rowsumAVX2(z, coef []float64, idx []int, rows []float64, stride int)
//
// For each k in turn, z[i] += coef[k]*rows[idx[k]*stride+i] for i < len(z),
// as rowsumGeneric does. z stays in registers, 48 entries (twelve ymm) at a
// time, then four, then one, while every row streams past it; each entry
// still takes one rounded product and one rounded sum per row, rows in
// order. rowsum has bounds-checked every row.
TEXT ·rowsumAVX2(SB), NOSPLIT, $0-104
	MOVQ z_base+0(FP), DI
	MOVQ z_len+8(FP), CX
	MOVQ coef_base+24(FP), SI
	MOVQ idx_base+48(FP), R8
	MOVQ idx_len+56(FP), R9
	MOVQ rows_base+72(FP), R10
	MOVQ stride+96(FP), R11
	XORQ AX, AX
	MOVQ CX, R12
	SUBQ $48, R12

block48:
	CMPQ    AX, R12
	JGT     block4
	VMOVUPD (DI)(AX*8), Y0
	VMOVUPD 32(DI)(AX*8), Y1
	VMOVUPD 64(DI)(AX*8), Y2
	VMOVUPD 96(DI)(AX*8), Y3
	VMOVUPD 128(DI)(AX*8), Y4
	VMOVUPD 160(DI)(AX*8), Y5
	VMOVUPD 192(DI)(AX*8), Y6
	VMOVUPD 224(DI)(AX*8), Y7
	VMOVUPD 256(DI)(AX*8), Y8
	VMOVUPD 288(DI)(AX*8), Y9
	VMOVUPD 320(DI)(AX*8), Y10
	VMOVUPD 352(DI)(AX*8), Y11
	XORQ    BX, BX

row48:
	CMPQ         BX, R9
	JGE          store48
	MOVQ         (R8)(BX*8), DX
	IMULQ        R11, DX
	ADDQ         AX, DX
	LEAQ         (R10)(DX*8), DX
	VBROADCASTSD (SI)(BX*8), Y12
	VMULPD       (DX), Y12, Y13
	VADDPD       Y13, Y0, Y0
	VMULPD       32(DX), Y12, Y14
	VADDPD       Y14, Y1, Y1
	VMULPD       64(DX), Y12, Y15
	VADDPD       Y15, Y2, Y2
	VMULPD       96(DX), Y12, Y13
	VADDPD       Y13, Y3, Y3
	VMULPD       128(DX), Y12, Y14
	VADDPD       Y14, Y4, Y4
	VMULPD       160(DX), Y12, Y15
	VADDPD       Y15, Y5, Y5
	VMULPD       192(DX), Y12, Y13
	VADDPD       Y13, Y6, Y6
	VMULPD       224(DX), Y12, Y14
	VADDPD       Y14, Y7, Y7
	VMULPD       256(DX), Y12, Y15
	VADDPD       Y15, Y8, Y8
	VMULPD       288(DX), Y12, Y13
	VADDPD       Y13, Y9, Y9
	VMULPD       320(DX), Y12, Y14
	VADDPD       Y14, Y10, Y10
	VMULPD       352(DX), Y12, Y15
	VADDPD       Y15, Y11, Y11
	INCQ         BX
	JMP          row48

store48:
	VMOVUPD Y0, (DI)(AX*8)
	VMOVUPD Y1, 32(DI)(AX*8)
	VMOVUPD Y2, 64(DI)(AX*8)
	VMOVUPD Y3, 96(DI)(AX*8)
	VMOVUPD Y4, 128(DI)(AX*8)
	VMOVUPD Y5, 160(DI)(AX*8)
	VMOVUPD Y6, 192(DI)(AX*8)
	VMOVUPD Y7, 224(DI)(AX*8)
	VMOVUPD Y8, 256(DI)(AX*8)
	VMOVUPD Y9, 288(DI)(AX*8)
	VMOVUPD Y10, 320(DI)(AX*8)
	VMOVUPD Y11, 352(DI)(AX*8)
	ADDQ    $48, AX
	JMP     block48

block4:
	MOVQ CX, R12
	SUBQ $4, R12

loop4:
	CMPQ    AX, R12
	JGT     block1
	VMOVUPD (DI)(AX*8), Y0
	XORQ    BX, BX

row4:
	CMPQ         BX, R9
	JGE          store4
	MOVQ         (R8)(BX*8), DX
	IMULQ        R11, DX
	ADDQ         AX, DX
	VBROADCASTSD (SI)(BX*8), Y12
	VMULPD       (R10)(DX*8), Y12, Y13
	VADDPD       Y13, Y0, Y0
	INCQ         BX
	JMP          row4

store4:
	VMOVUPD Y0, (DI)(AX*8)
	ADDQ    $4, AX
	JMP     loop4

block1:
	CMPQ   AX, CX
	JGE    rowsumdone
	VMOVSD (DI)(AX*8), X0
	XORQ   BX, BX

row1:
	CMPQ   BX, R9
	JGE    store1
	MOVQ   (R8)(BX*8), DX
	IMULQ  R11, DX
	ADDQ   AX, DX
	VMOVSD (SI)(BX*8), X12
	VMULSD (R10)(DX*8), X12, X13
	VADDSD X13, X0, X0
	INCQ   BX
	JMP    row1

store1:
	VMOVSD X0, (DI)(AX*8)
	INCQ   AX
	JMP    block1

rowsumdone:
	VZEROUPPER
	RET

// Four-lane copies of archLog's constants and masks (math/log_amd64.s),
// by bits.
#define LOGCONST(name, bits) \
	DATA name<>+0(SB)/8, $bits; \
	DATA name<>+8(SB)/8, $bits; \
	DATA name<>+16(SB)/8, $bits; \
	DATA name<>+24(SB)/8, $bits; \
	GLOBL name<>(SB), RODATA|NOPTR, $32

LOGCONST(logMant, 0x000FFFFFFFFFFFFF)
LOGCONST(logExp, 0x00000000000007FF)
LOGCONST(logAbs, 0x7FFFFFFFFFFFFFFF)
LOGCONST(logMaxFinite, 0x7FEFFFFFFFFFFFFF)
LOGCONST(logNaN, 0x7FF8000000000001)
LOGCONST(logNegInf, 0xFFF0000000000000)
LOGCONST(logTwo52, 0x4330000000000000)     // 2^52
LOGCONST(logTwo52Bias, 0x43300000000003FE) // 2^52 + 0x3FE
LOGCONST(logHalf, 0x3FE0000000000000)      // 0.5
LOGCONST(logOne, 0x3FF0000000000000)       // 1
LOGCONST(logTwo, 0x4000000000000000)       // 2
LOGCONST(logHSqrt2, 0x3FE6A09E667F3BCD)    // Sqrt2/2
LOGCONST(logLn2Hi, 0x3FE62E42FEE00000)
LOGCONST(logLn2Lo, 0x3DEA39EF35793C76)
LOGCONST(logL1, 0x3FE5555555555593)
LOGCONST(logL2, 0x3FD999999997FA04)
LOGCONST(logL3, 0x3FD2492494229359)
LOGCONST(logL4, 0x3FCC71C51D8E78AF)
LOGCONST(logL5, 0x3FC7466496CB03DE)
LOGCONST(logL6, 0x3FC39A09D078C69F)
LOGCONST(logL7, 0x3FC2F112DF3E5244)

// func logAVX2(x []float64)
//
// x[i] = math.Log(x[i]), four lanes a step; len(x) is a multiple of four.
// Each lane runs archLog's instruction sequence (math/log_amd64.s), with its
// masks, constants and operation order, and then blends in its special
// cases: -Inf for ±0, NaN for negatives, x itself for +Inf and NaN.
TEXT ·logAVX2(SB), NOSPLIT, $0-24
	MOVQ  x_base+0(FP), DI
	MOVQ  x_len+8(FP), CX
	XORQ  AX, AX
	VPXOR Y9, Y9, Y9

log4:
	CMPQ    AX, CX
	JGE     logdone
	VMOVUPD (DI)(AX*8), Y0

	// f1, ki := math.Frexp(x) on the raw bits, as archLog does: f1 is the
	// mantissa under 0.5's exponent, k = exponent - 0x3FE, converted
	// exactly through 2^52 + e - (2^52 + 0x3FE).
	VANDPD logMant<>(SB), Y0, Y1
	VORPD  logHalf<>(SB), Y1, Y1
	VPSRLQ $52, Y0, Y2
	VPAND  logExp<>(SB), Y2, Y2
	VPOR   logTwo52<>(SB), Y2, Y2
	VSUBPD logTwo52Bias<>(SB), Y2, Y2

	// if f1 <= Sqrt2/2 { k -= 1; f1 *= 2 }; f := f1 - 1
	VCMPPD $2, logHSqrt2<>(SB), Y1, Y3
	VANDPD logOne<>(SB), Y3, Y3
	VSUBPD Y3, Y2, Y2
	VADDPD logOne<>(SB), Y3, Y3
	VMULPD Y3, Y1, Y1
	VSUBPD logOne<>(SB), Y1, Y1

	// s := f / (2 + f); s2 := s * s; s4 := s2 * s2
	VADDPD logTwo<>(SB), Y1, Y4
	VDIVPD Y4, Y1, Y4
	VMULPD Y4, Y4, Y5
	VMULPD Y5, Y5, Y6

	// t1 := s2 * (L1 + s4*(L3+s4*(L5+s4*L7)))
	VMULPD logL7<>(SB), Y6, Y7
	VADDPD logL5<>(SB), Y7, Y7
	VMULPD Y6, Y7, Y7
	VADDPD logL3<>(SB), Y7, Y7
	VMULPD Y6, Y7, Y7
	VADDPD logL1<>(SB), Y7, Y7
	VMULPD Y7, Y5, Y5

	// t2 := s4 * (L2 + s4*(L4+s4*L6)); R := t1 + t2
	VMULPD logL6<>(SB), Y6, Y7
	VADDPD logL4<>(SB), Y7, Y7
	VMULPD Y6, Y7, Y7
	VADDPD logL2<>(SB), Y7, Y7
	VMULPD Y7, Y6, Y6
	VADDPD Y6, Y5, Y5

	// hfsq := 0.5 * f * f
	VMULPD logHalf<>(SB), Y1, Y8
	VMULPD Y1, Y8, Y8

	// k*Ln2Hi - ((hfsq - (s*(hfsq+R) + k*Ln2Lo)) - f)
	VADDPD Y8, Y5, Y5
	VMULPD Y5, Y4, Y4
	VMULPD logLn2Lo<>(SB), Y2, Y5
	VADDPD Y5, Y4, Y4
	VSUBPD Y4, Y8, Y8
	VSUBPD Y1, Y8, Y8
	VMULPD logLn2Hi<>(SB), Y2, Y2
	VSUBPD Y8, Y2, Y2

	// Special cases, tested on the bits in archLog's order: ±0 gives
	// -Inf, any other negative NaN, +Inf and NaN themselves.
	VPAND     logAbs<>(SB), Y0, Y3
	VPCMPEQQ  Y9, Y3, Y10
	VPCMPGTQ  Y0, Y9, Y11
	VPCMPGTQ  logMaxFinite<>(SB), Y0, Y12
	VBLENDVPD Y12, Y0, Y2, Y2
	VBLENDVPD Y11, logNaN<>(SB), Y2, Y2
	VBLENDVPD Y10, logNegInf<>(SB), Y2, Y2

	VMOVUPD Y2, (DI)(AX*8)
	ADDQ    $4, AX
	JMP     log4

logdone:
	VZEROUPPER
	RET

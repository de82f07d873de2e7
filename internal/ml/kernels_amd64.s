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

// func axpyAVX2(z []float64, v float64, r []float64)
//
// z[i] += v*r[i] for i < len(z): sixteen lanes a step, then four at a time,
// then one. Each lane is one rounded product and one rounded sum, as in
// axpyGeneric.
TEXT ·axpyAVX2(SB), NOSPLIT, $0-56
	MOVQ         z_base+0(FP), DI
	MOVQ         z_len+8(FP), CX
	VBROADCASTSD v+24(FP), Y0
	MOVQ         r_base+32(FP), SI
	XORQ         AX, AX
	MOVQ         CX, DX
	ANDQ         $-16, DX
	JZ           tail4

loop16:
	VMULPD  (SI)(AX*8), Y0, Y1
	VMULPD  32(SI)(AX*8), Y0, Y2
	VMULPD  64(SI)(AX*8), Y0, Y3
	VMULPD  96(SI)(AX*8), Y0, Y4
	VADDPD  (DI)(AX*8), Y1, Y1
	VADDPD  32(DI)(AX*8), Y2, Y2
	VADDPD  64(DI)(AX*8), Y3, Y3
	VADDPD  96(DI)(AX*8), Y4, Y4
	VMOVUPD Y1, (DI)(AX*8)
	VMOVUPD Y2, 32(DI)(AX*8)
	VMOVUPD Y3, 64(DI)(AX*8)
	VMOVUPD Y4, 96(DI)(AX*8)
	ADDQ    $16, AX
	CMPQ    AX, DX
	JLT     loop16

tail4:
	MOVQ CX, DX
	ANDQ $-4, DX
	CMPQ AX, DX
	JGE  tail1

loop4:
	VMULPD  (SI)(AX*8), Y0, Y1
	VADDPD  (DI)(AX*8), Y1, Y1
	VMOVUPD Y1, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, DX
	JLT     loop4

tail1:
	CMPQ AX, CX
	JGE  done

loop1:
	VMULSD (SI)(AX*8), X0, X1
	VADDSD (DI)(AX*8), X1, X1
	VMOVSD X1, (DI)(AX*8)
	INCQ   AX
	CMPQ   AX, CX
	JLT    loop1

done:
	VZEROUPPER
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

//go:build amd64 && !race

#include "textflag.h"

// The AVX row kernels (see kernels.go). Each lane of a ymm register is one
// element of y, and it goes through the Go loop's steps: VMULPD rounds the
// product, VADDPD adds it to the element. No FMA instruction is used. Four
// elements go per iteration, the rest one at a time with the scalar forms.
// PCALIGN puts every loop head on a 64-byte line (and raises the function's
// own alignment to match), so a loop's placement does not follow link order.

// func axpyAVX(a float64, x, y []float64)
TEXT ·axpyAVX(SB), NOSPLIT, $0-56
	VBROADCASTSD a+0(FP), Y0
	MOVQ         x_base+8(FP), SI
	MOVQ         x_len+16(FP), CX
	MOVQ         y_base+32(FP), DI
	MOVQ         CX, DX
	ANDQ         $-4, DX
	XORQ         AX, AX
	CMPQ         AX, DX
	JAE          axpytail

	PCALIGN $64

axpyloop:
	VMULPD  (SI)(AX*8), Y0, Y1
	VADDPD  (DI)(AX*8), Y1, Y1
	VMOVUPD Y1, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, DX
	JB      axpyloop

axpytail:
	CMPQ AX, CX
	JAE  axpydone

	PCALIGN $64

axpytailloop:
	VMOVSD (SI)(AX*8), X1
	VMULSD X1, X0, X1
	VADDSD (DI)(AX*8), X1, X1
	VMOVSD X1, (DI)(AX*8)
	INCQ   AX
	CMPQ   AX, CX
	JB     axpytailloop

axpydone:
	VZEROUPPER
	RET

// func axpy4AVX(a0, a1, a2, a3 float64, x0, x1, x2, x3, y []float64)
TEXT ·axpy4AVX(SB), NOSPLIT, $0-152
	VBROADCASTSD a0+0(FP), Y0
	VBROADCASTSD a1+8(FP), Y1
	VBROADCASTSD a2+16(FP), Y2
	VBROADCASTSD a3+24(FP), Y3
	MOVQ         x0_base+32(FP), R8
	MOVQ         x1_base+56(FP), R9
	MOVQ         x2_base+80(FP), R10
	MOVQ         x3_base+104(FP), R11
	MOVQ         y_base+128(FP), DI
	MOVQ         y_len+136(FP), CX
	MOVQ         CX, DX
	ANDQ         $-4, DX
	XORQ         AX, AX
	CMPQ         AX, DX
	JAE          axpy4tail

	PCALIGN $64

axpy4loop:
	VMOVUPD (DI)(AX*8), Y4
	VMULPD  (R8)(AX*8), Y0, Y5
	VADDPD  Y5, Y4, Y4
	VMULPD  (R9)(AX*8), Y1, Y6
	VADDPD  Y6, Y4, Y4
	VMULPD  (R10)(AX*8), Y2, Y7
	VADDPD  Y7, Y4, Y4
	VMULPD  (R11)(AX*8), Y3, Y8
	VADDPD  Y8, Y4, Y4
	VMOVUPD Y4, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, DX
	JB      axpy4loop

axpy4tail:
	CMPQ AX, CX
	JAE  axpy4done

	PCALIGN $64

axpy4tailloop:
	VMOVSD (DI)(AX*8), X4
	VMOVSD (R8)(AX*8), X5
	VMULSD X5, X0, X5
	VADDSD X5, X4, X4
	VMOVSD (R9)(AX*8), X6
	VMULSD X6, X1, X6
	VADDSD X6, X4, X4
	VMOVSD (R10)(AX*8), X7
	VMULSD X7, X2, X7
	VADDSD X7, X4, X4
	VMOVSD (R11)(AX*8), X8
	VMULSD X8, X3, X8
	VADDSD X8, X4, X4
	VMOVSD X4, (DI)(AX*8)
	INCQ   AX
	CMPQ   AX, CX
	JB     axpy4tailloop

axpy4done:
	VZEROUPPER
	RET

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

//go:build amd64 && !race

#include "textflag.h"

// The SSE2 bodies of Axpy and Axpy4. Each lane owns one element of y: the
// lane forms each product with MULPS (rounded to float32, as the Go loop's
// explicit conversion rounds it) and adds it to the element with ADDPS, in
// term order, so every element is bitwise the Go loop's result (a NaN stays
// a NaN; its payload may differ). There is no FMA and no reassociation.
// Eight elements go per iteration, then four, then one at a time with the
// scalar MULSS/ADDSS. The callers have sliced every x to len(y).

// func axpy(y []float32, w float32, x []float32)
TEXT ·axpy(SB), NOSPLIT, $0-56
	MOVQ   y_base+0(FP), DI
	MOVQ   y_len+8(FP), CX
	MOVSS  w+24(FP), X0
	MOVQ   x_base+32(FP), SI
	SHUFPS $0x00, X0, X0
	XORQ   AX, AX
	MOVQ   CX, DX
	ANDQ   $-8, DX

axpy8:
	CMPQ   AX, DX
	JAE    axpy4start
	MOVUPS (SI)(AX*4), X1
	MOVUPS 16(SI)(AX*4), X2
	MULPS  X0, X1
	MULPS  X0, X2
	MOVUPS (DI)(AX*4), X3
	MOVUPS 16(DI)(AX*4), X4
	ADDPS  X1, X3
	ADDPS  X2, X4
	MOVUPS X3, (DI)(AX*4)
	MOVUPS X4, 16(DI)(AX*4)
	ADDQ   $8, AX
	JMP    axpy8

axpy4start:
	MOVQ   CX, DX
	ANDQ   $-4, DX
	CMPQ   AX, DX
	JAE    axpy1
	MOVUPS (SI)(AX*4), X1
	MULPS  X0, X1
	MOVUPS (DI)(AX*4), X3
	ADDPS  X1, X3
	MOVUPS X3, (DI)(AX*4)
	ADDQ   $4, AX

axpy1:
	CMPQ  AX, CX
	JAE   axpydone
	MOVSS (SI)(AX*4), X1
	MULSS X0, X1
	MOVSS (DI)(AX*4), X3
	ADDSS X1, X3
	MOVSS X3, (DI)(AX*4)
	INCQ  AX
	JMP   axpy1

axpydone:
	RET

// func axpy4(y []float32, w0, w1, w2, w3 float32, x0, x1, x2, x3 []float32)
TEXT ·axpy4(SB), NOSPLIT, $0-136
	MOVQ   y_base+0(FP), DI
	MOVQ   y_len+8(FP), CX
	MOVSS  w0+24(FP), X0
	MOVSS  w1+28(FP), X1
	MOVSS  w2+32(FP), X2
	MOVSS  w3+36(FP), X3
	MOVQ   x0_base+40(FP), R8
	MOVQ   x1_base+64(FP), R9
	MOVQ   x2_base+88(FP), R10
	MOVQ   x3_base+112(FP), R11
	SHUFPS $0x00, X0, X0
	SHUFPS $0x00, X1, X1
	SHUFPS $0x00, X2, X2
	SHUFPS $0x00, X3, X3
	XORQ   AX, AX
	MOVQ   CX, DX
	ANDQ   $-8, DX

axpy4x8:
	CMPQ   AX, DX
	JAE    axpy4x4start
	MOVUPS (DI)(AX*4), X4
	MOVUPS 16(DI)(AX*4), X5
	MOVUPS (R8)(AX*4), X6
	MOVUPS 16(R8)(AX*4), X7
	MULPS  X0, X6
	MULPS  X0, X7
	ADDPS  X6, X4
	ADDPS  X7, X5
	MOVUPS (R9)(AX*4), X6
	MOVUPS 16(R9)(AX*4), X7
	MULPS  X1, X6
	MULPS  X1, X7
	ADDPS  X6, X4
	ADDPS  X7, X5
	MOVUPS (R10)(AX*4), X6
	MOVUPS 16(R10)(AX*4), X7
	MULPS  X2, X6
	MULPS  X2, X7
	ADDPS  X6, X4
	ADDPS  X7, X5
	MOVUPS (R11)(AX*4), X6
	MOVUPS 16(R11)(AX*4), X7
	MULPS  X3, X6
	MULPS  X3, X7
	ADDPS  X6, X4
	ADDPS  X7, X5
	MOVUPS X4, (DI)(AX*4)
	MOVUPS X5, 16(DI)(AX*4)
	ADDQ   $8, AX
	JMP    axpy4x8

axpy4x4start:
	MOVQ   CX, DX
	ANDQ   $-4, DX
	CMPQ   AX, DX
	JAE    axpy4x1
	MOVUPS (DI)(AX*4), X4
	MOVUPS (R8)(AX*4), X6
	MULPS  X0, X6
	ADDPS  X6, X4
	MOVUPS (R9)(AX*4), X6
	MULPS  X1, X6
	ADDPS  X6, X4
	MOVUPS (R10)(AX*4), X6
	MULPS  X2, X6
	ADDPS  X6, X4
	MOVUPS (R11)(AX*4), X6
	MULPS  X3, X6
	ADDPS  X6, X4
	MOVUPS X4, (DI)(AX*4)
	ADDQ   $4, AX

axpy4x1:
	CMPQ  AX, CX
	JAE   axpy4done
	MOVSS (DI)(AX*4), X4
	MOVSS (R8)(AX*4), X6
	MULSS X0, X6
	ADDSS X6, X4
	MOVSS (R9)(AX*4), X6
	MULSS X1, X6
	ADDSS X6, X4
	MOVSS (R10)(AX*4), X6
	MULSS X2, X6
	ADDSS X6, X4
	MOVSS (R11)(AX*4), X6
	MULSS X3, X6
	ADDSS X6, X4
	MOVSS X4, (DI)(AX*4)
	INCQ  AX
	JMP   axpy4x1

axpy4done:
	RET

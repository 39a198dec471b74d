// AVX2/FMA kernels for the direct stride-1 convolution (conv_s1.go).
// Each kernel reproduces, element for element, the FMA chain the GEMM
// branch it replaces computes for the same shape; see conv_s1.go for
// the correspondence.

#include "textflag.h"

// func convFwdAsm(nblk, ntap int, offs *int, src, w, dst *float32, ldd int)
//
// A 4-channel × 16-position output tile per block b < nblk:
//
//	dst[r*ldd + 16b + j] = Σ_t w[4t + r] · src[offs[t] + 16b + j]
//
// each sum a single-rounded FMA chain from +0 in tap order — the chain
// gemmAxpyB's saxpy passes build for the same output element.
TEXT ·convFwdAsm(SB), NOSPLIT, $0-56
	MOVQ nblk+0(FP), CX
	MOVQ src+24(FP), SI
	MOVQ dst+40(FP), DI
	MOVQ ldd+48(FP), R13
	SHLQ $2, R13            // row stride in bytes
	LEAQ (R13)(R13*2), AX   // three rows
	TESTQ CX, CX
	JZ    fdone

fblk:
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	MOVQ offs+16(FP), R8
	MOVQ w+32(FP), R9
	MOVQ ntap+8(FP), DX

ftap:
	MOVQ         (R8), R10
	VMOVUPS      (SI)(R10*4), Y8
	VMOVUPS      32(SI)(R10*4), Y9
	VBROADCASTSS (R9), Y10
	VFMADD231PS  Y8, Y10, Y0
	VFMADD231PS  Y9, Y10, Y1
	VBROADCASTSS 4(R9), Y11
	VFMADD231PS  Y8, Y11, Y2
	VFMADD231PS  Y9, Y11, Y3
	VBROADCASTSS 8(R9), Y10
	VFMADD231PS  Y8, Y10, Y4
	VFMADD231PS  Y9, Y10, Y5
	VBROADCASTSS 12(R9), Y11
	VFMADD231PS  Y8, Y11, Y6
	VFMADD231PS  Y9, Y11, Y7
	ADDQ         $8, R8
	ADDQ         $16, R9
	DECQ         DX
	JNZ          ftap

	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, (DI)(R13*1)
	VMOVUPS Y3, 32(DI)(R13*1)
	VMOVUPS Y4, (DI)(R13*2)
	VMOVUPS Y5, 32(DI)(R13*2)
	VMOVUPS Y6, (DI)(AX*1)
	VMOVUPS Y7, 32(DI)(AX*1)
	ADDQ    $64, SI
	ADDQ    $64, DI
	DECQ    CX
	JNZ     fblk

fdone:
	VZEROUPPER
	RET

// func convBwdDataAsm(nblk, ntap, noc int, goffs *int, gp *float32, gps int, w, dst *float32, ldd int)
//
// A 4-channel × 16-position input-gradient tile per block b < nblk.
// For each tap t in order, the tap's column gradient
//
//	c_t[r][j] = Σ_oc w[(t*noc + oc)*4 + r] · gp[oc*gps + goffs[t] + 16b + j]
//
// is an FMA chain from +0 in output-channel order (gemmAxpyB's chain for
// Wᵀ·g), and is then added to dst[r*ldd + 16b + j] with a separate
// VADDPS, dst first — Col2Im's per-element tap order and rounding.
TEXT ·convBwdDataAsm(SB), NOSPLIT, $0-72
	MOVQ nblk+0(FP), CX
	MOVQ gp+32(FP), SI
	MOVQ gps+40(FP), R13
	SHLQ $2, R13            // gradient plane stride in bytes
	MOVQ dst+56(FP), DI
	MOVQ ldd+64(FP), AX
	SHLQ $2, AX             // dst row stride in bytes
	LEAQ (AX)(AX*2), R11    // three rows
	TESTQ CX, CX
	JZ    bdone

bblk:
	MOVQ goffs+24(FP), R8
	MOVQ w+48(FP), R10
	MOVQ ntap+8(FP), DX

btap:
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	MOVQ   (R8), R9
	LEAQ   (SI)(R9*4), R9
	MOVQ   noc+16(FP), BX

boc:
	VMOVUPS      (R9), Y8
	VMOVUPS      32(R9), Y9
	VBROADCASTSS (R10), Y10
	VFMADD231PS  Y8, Y10, Y0
	VFMADD231PS  Y9, Y10, Y1
	VBROADCASTSS 4(R10), Y11
	VFMADD231PS  Y8, Y11, Y2
	VFMADD231PS  Y9, Y11, Y3
	VBROADCASTSS 8(R10), Y10
	VFMADD231PS  Y8, Y10, Y4
	VFMADD231PS  Y9, Y10, Y5
	VBROADCASTSS 12(R10), Y11
	VFMADD231PS  Y8, Y11, Y6
	VFMADD231PS  Y9, Y11, Y7
	ADDQ         R13, R9
	ADDQ         $16, R10
	DECQ         BX
	JNZ          boc

	VMOVUPS (DI), Y8
	VADDPS  Y0, Y8, Y8
	VMOVUPS Y8, (DI)
	VMOVUPS 32(DI), Y9
	VADDPS  Y1, Y9, Y9
	VMOVUPS Y9, 32(DI)
	VMOVUPS (DI)(AX*1), Y8
	VADDPS  Y2, Y8, Y8
	VMOVUPS Y8, (DI)(AX*1)
	VMOVUPS 32(DI)(AX*1), Y9
	VADDPS  Y3, Y9, Y9
	VMOVUPS Y9, 32(DI)(AX*1)
	VMOVUPS (DI)(AX*2), Y8
	VADDPS  Y4, Y8, Y8
	VMOVUPS Y8, (DI)(AX*2)
	VMOVUPS 32(DI)(AX*2), Y9
	VADDPS  Y5, Y9, Y9
	VMOVUPS Y9, 32(DI)(AX*2)
	VMOVUPS (DI)(R11*1), Y8
	VADDPS  Y6, Y8, Y8
	VMOVUPS Y8, (DI)(R11*1)
	VMOVUPS 32(DI)(R11*1), Y9
	VADDPS  Y7, Y9, Y9
	VMOVUPS Y9, 32(DI)(R11*1)

	ADDQ $8, R8
	DECQ DX
	JNZ  btap

	ADDQ $64, SI
	ADDQ $64, DI
	DECQ CX
	JNZ  bblk

bdone:
	VZEROUPPER
	RET

// func convWGradDotAsm(nchunk int, segs *int, col, grad *float32, ldg int, dst *float32)
//
// Four weight-gradient elements (output channels r < 4, one tap):
//
//	dst[r] = Σ_{s < 16·nchunk} grad[r*ldg + s] · col(s)
//
// where the column is gathered from the padded image: the 8-position
// segment s/8 starts at col + segs[s/8]. The two accumulators per
// output (even and odd 8-blocks), their combination and the horizontal
// reduction are exactly dotKernel1x4Asm's.
TEXT ·convWGradDotAsm(SB), NOSPLIT, $0-48
	MOVQ nchunk+0(FP), CX
	MOVQ segs+8(FP), R8
	MOVQ col+16(FP), SI
	MOVQ grad+24(FP), DI
	MOVQ ldg+32(FP), R12
	SHLQ $2, R12            // gradient row stride in bytes
	LEAQ (R12)(R12*2), R13  // three rows

	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7

	TESTQ CX, CX
	JZ    dreduce

dloop:
	MOVQ        (R8), R10
	MOVQ        8(R8), R11
	VMOVUPS     (SI)(R10*4), Y8
	VMOVUPS     (SI)(R11*4), Y9
	VFMADD231PS (DI), Y8, Y0
	VFMADD231PS (DI)(R12*1), Y8, Y1
	VFMADD231PS (DI)(R12*2), Y8, Y2
	VFMADD231PS (DI)(R13*1), Y8, Y3
	VFMADD231PS 32(DI), Y9, Y4
	VFMADD231PS 32(DI)(R12*1), Y9, Y5
	VFMADD231PS 32(DI)(R12*2), Y9, Y6
	VFMADD231PS 32(DI)(R13*1), Y9, Y7
	ADDQ        $16, R8
	ADDQ        $64, DI
	DECQ        CX
	JNZ         dloop

dreduce:
	MOVQ   dst+40(FP), DX
	VADDPS Y4, Y0, Y0
	VADDPS Y5, Y1, Y1
	VADDPS Y6, Y2, Y2
	VADDPS Y7, Y3, Y3

	VEXTRACTF128 $1, Y0, X8
	VADDPS       X8, X0, X0
	VHADDPS      X0, X0, X0
	VHADDPS      X0, X0, X0
	VMOVSS       X0, (DX)

	VEXTRACTF128 $1, Y1, X8
	VADDPS       X8, X1, X1
	VHADDPS      X1, X1, X1
	VHADDPS      X1, X1, X1
	VMOVSS       X1, 4(DX)

	VEXTRACTF128 $1, Y2, X8
	VADDPS       X8, X2, X2
	VHADDPS      X2, X2, X2
	VHADDPS      X2, X2, X2
	VMOVSS       X2, 8(DX)

	VEXTRACTF128 $1, Y3, X8
	VADDPS       X8, X3, X3
	VHADDPS      X3, X3, X3
	VHADDPS      X3, X3, X3
	VMOVSS       X3, 12(DX)

	VZEROUPPER
	RET

// func convWGradSeqAsm(nrow, ow, skip int, src *float32, offs *[6]int, gt *float32, acc *float32)
//
// A 6-tap × 16-channel weight-gradient tile:
//
//	acc[r*16 + j] = Σ_s gt[16s + j] · src[offs[r] + pos(s)]
//
// s walks nrow rows of ow positions; pos(s) advances by one within a
// row and by skip more between rows. Each sum is one FMA chain from +0
// in s order — the packed 6×16 kernel's chain for a single k-slab.
TEXT ·convWGradSeqAsm(SB), NOSPLIT, $0-56
	MOVQ offs+32(FP), DX
	MOVQ 0(DX), R8
	MOVQ 8(DX), R9
	MOVQ 16(DX), R10
	MOVQ 24(DX), R11
	MOVQ 32(DX), R12
	MOVQ 40(DX), R13
	SHLQ $2, R8
	SHLQ $2, R9
	SHLQ $2, R10
	SHLQ $2, R11
	SHLQ $2, R12
	SHLQ $2, R13
	MOVQ nrow+0(FP), CX
	MOVQ ow+8(FP), AX
	MOVQ skip+16(FP), BX
	SHLQ $2, BX
	MOVQ src+24(FP), SI
	MOVQ gt+40(FP), DI

	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	VXORPS Y8, Y8, Y8
	VXORPS Y9, Y9, Y9
	VXORPS Y10, Y10, Y10
	VXORPS Y11, Y11, Y11

	TESTQ CX, CX
	JZ    sstore
	TESTQ AX, AX
	JZ    sstore

srow:
	MOVQ AX, DX

scol:
	VMOVUPS      (DI), Y12
	VMOVUPS      32(DI), Y13
	VBROADCASTSS (SI)(R8*1), Y14
	VFMADD231PS  Y12, Y14, Y0
	VFMADD231PS  Y13, Y14, Y1
	VBROADCASTSS (SI)(R9*1), Y15
	VFMADD231PS  Y12, Y15, Y2
	VFMADD231PS  Y13, Y15, Y3
	VBROADCASTSS (SI)(R10*1), Y14
	VFMADD231PS  Y12, Y14, Y4
	VFMADD231PS  Y13, Y14, Y5
	VBROADCASTSS (SI)(R11*1), Y15
	VFMADD231PS  Y12, Y15, Y6
	VFMADD231PS  Y13, Y15, Y7
	VBROADCASTSS (SI)(R12*1), Y14
	VFMADD231PS  Y12, Y14, Y8
	VFMADD231PS  Y13, Y14, Y9
	VBROADCASTSS (SI)(R13*1), Y15
	VFMADD231PS  Y12, Y15, Y10
	VFMADD231PS  Y13, Y15, Y11
	ADDQ         $4, SI
	ADDQ         $64, DI
	DECQ         DX
	JNZ          scol

	ADDQ BX, SI
	DECQ CX
	JNZ  srow

sstore:
	MOVQ    acc+48(FP), DX
	VMOVUPS Y0, (DX)
	VMOVUPS Y1, 32(DX)
	VMOVUPS Y2, 64(DX)
	VMOVUPS Y3, 96(DX)
	VMOVUPS Y4, 128(DX)
	VMOVUPS Y5, 160(DX)
	VMOVUPS Y6, 192(DX)
	VMOVUPS Y7, 224(DX)
	VMOVUPS Y8, 256(DX)
	VMOVUPS Y9, 288(DX)
	VMOVUPS Y10, 320(DX)
	VMOVUPS Y11, 352(DX)
	VZEROUPPER
	RET

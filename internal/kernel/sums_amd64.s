// AVX2+FMA row-sum kernels behind the batched page-pair ε-tests. Each
// routine computes, for every row k of a flat row-major block, the re-summed
// distance statistic against one probe vector:
//
//	l2SumsAsm: sums[k] = Σ_j (probe[j] - data[k*dim+j])²
//	l1SumsAsm: sums[k] = Σ_j |probe[j] - data[k*dim+j]|
//
// The 4-probe variants (l2Sums4Asm / l1Sums4Asm) behind the cluster-batched
// block kernel evaluate four contiguous probe rows per pass, sharing each
// data-chunk load across four accumulator sets and amortizing the horizontal
// reduction (one 4-way transpose reduce per data row instead of four scalar
// reduces); they require dim to be a multiple of 4 and store the four sums
// of data row k interleaved at sums[4k .. 4k+3].
//
// Early abandon. Every routine takes a limit. After the first block of 8
// coordinates it reduces its accumulators through the same tree its final
// reduction uses; if that partial sum is > limit (for the 4-probe variants:
// all four partial sums), it stores the partial sums and skips the rest of
// the row. This never changes a decision made against limit: every term
// (d² via FMA, or |d|) is non-negative and IEEE rounding is monotone, so
// each lane accumulator only grows, and the fixed reduction tree is monotone
// in each input. A partial sum > limit therefore means the full sum is
// > limit too, or NaN when a NaN term follows the checkpoint, and both are
// outside for a caller that classifies against limit. A NaN partial sum
// compares not-above and runs to the end of the row, so every row that is
// not abandoned gets the bit-identical sums it gets with limit = +Inf.
// Each routine returns the number of data rows with at least one stored sum
// not > limit; a caller that sees 0 has nothing to classify.
//
// The vector lanes re-associate the addition (and the FMA skips the
// intermediate rounding of the multiply), so these sums are NOT bit-equal to
// the sequential reference; the Go caller compares them against banded
// limits and re-runs the exact sequential test on the sliver the band cannot
// decide (see blockPairsSumSIMD). Guarded by hasSIMD.

//go:build amd64

#include "textflag.h"

DATA absmask<>+0(SB)/8, $0x7FFFFFFFFFFFFFFF
DATA absmask<>+8(SB)/8, $0x7FFFFFFFFFFFFFFF
DATA absmask<>+16(SB)/8, $0x7FFFFFFFFFFFFFFF
DATA absmask<>+24(SB)/8, $0x7FFFFFFFFFFFFFFF
GLOBL absmask<>(SB), RODATA, $32

// func l2SumsAsm(probe []float64, data []float64, sums []float64, dim int, limit float64) int
//
// Y0/Y1 accumulate even/odd 4-coordinate chunks; X15 holds limit; DX
// counts surviving rows.
TEXT ·l2SumsAsm(SB), NOSPLIT, $0-96
	MOVQ probe_base+0(FP), SI
	MOVQ data_base+24(FP), DI
	MOVQ sums_base+48(FP), R10
	MOVQ sums_len+56(FP), R8
	MOVQ dim+72(FP), R9
	VMOVSD limit+80(FP), X15
	LEAQ 64(SI), AX          // probe pointer after the first block
	XORQ DX, DX
	TESTQ R8, R8
	JZ   l2done

l2row:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	MOVQ   R9, CX
	MOVQ   SI, R11

l2loop8:
	CMPQ CX, $8
	JLT  l2loop4
	VMOVUPD (R11), Y2
	VMOVUPD (DI), Y3
	VSUBPD  Y3, Y2, Y2
	VFMADD231PD Y2, Y2, Y0
	VMOVUPD 32(R11), Y4
	VMOVUPD 32(DI), Y5
	VSUBPD  Y5, Y4, Y4
	VFMADD231PD Y4, Y4, Y1
	ADDQ $64, R11
	ADDQ $64, DI
	SUBQ $8, CX
	CMPQ R11, AX
	JNE  l2loop8
	// Checkpoint after the first block of 8: the final reduction on a
	// copy of the accumulators.
	VADDPD       Y1, Y0, Y2
	VEXTRACTF128 $1, Y2, X3
	VADDPD       X3, X2, X2
	VPERMILPD    $1, X2, X3
	VADDSD       X3, X2, X2
	VUCOMISD     X15, X2
	JA           l2abandon
	JMP          l2loop8

l2loop4:
	CMPQ CX, $4
	JLT  l2reduce
	VMOVUPD (R11), Y2
	VMOVUPD (DI), Y3
	VSUBPD  Y3, Y2, Y2
	VFMADD231PD Y2, Y2, Y0
	ADDQ $32, R11
	ADDQ $32, DI
	SUBQ $4, CX

l2reduce:
	VADDPD       Y1, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPD       X1, X0, X0
	VPERMILPD    $1, X0, X1
	VADDSD       X1, X0, X0

l2tail:
	TESTQ CX, CX
	JZ    l2store
	VMOVSD (R11), X2
	VSUBSD (DI), X2, X2
	VFMADD231SD X2, X2, X0
	ADDQ $8, R11
	ADDQ $8, DI
	DECQ CX
	JMP  l2tail

l2store:
	VMOVSD  X0, (R10)
	VUCOMISD X15, X0
	JA      l2next
	INCQ    DX
	JMP     l2next

l2abandon:
	// The partial sum is > limit: store it and skip the row's rest.
	VMOVSD X2, (R10)
	LEAQ   (DI)(CX*8), DI

l2next:
	ADDQ $8, R10
	DECQ R8
	JNZ  l2row

l2done:
	MOVQ DX, ret+88(FP)
	VZEROUPPER
	RET

// func l1SumsAsm(probe []float64, data []float64, sums []float64, dim int, limit float64) int
//
// l2SumsAsm for the L1 statistic, the absolute value masked via absmask in
// Y6.
TEXT ·l1SumsAsm(SB), NOSPLIT, $0-96
	MOVQ probe_base+0(FP), SI
	MOVQ data_base+24(FP), DI
	MOVQ sums_base+48(FP), R10
	MOVQ sums_len+56(FP), R8
	MOVQ dim+72(FP), R9
	VMOVSD limit+80(FP), X15
	VMOVUPD absmask<>(SB), Y6
	LEAQ 64(SI), AX          // probe pointer after the first block
	XORQ DX, DX
	TESTQ R8, R8
	JZ   l1done

l1row:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	MOVQ   R9, CX
	MOVQ   SI, R11

l1loop8:
	CMPQ CX, $8
	JLT  l1loop4
	VMOVUPD (R11), Y2
	VMOVUPD (DI), Y3
	VSUBPD  Y3, Y2, Y2
	VANDPD  Y6, Y2, Y2
	VADDPD  Y2, Y0, Y0
	VMOVUPD 32(R11), Y4
	VMOVUPD 32(DI), Y5
	VSUBPD  Y5, Y4, Y4
	VANDPD  Y6, Y4, Y4
	VADDPD  Y4, Y1, Y1
	ADDQ $64, R11
	ADDQ $64, DI
	SUBQ $8, CX
	CMPQ R11, AX
	JNE  l1loop8
	// Checkpoint after the first block of 8: the final reduction on a
	// copy of the accumulators.
	VADDPD       Y1, Y0, Y2
	VEXTRACTF128 $1, Y2, X3
	VADDPD       X3, X2, X2
	VPERMILPD    $1, X2, X3
	VADDSD       X3, X2, X2
	VUCOMISD     X15, X2
	JA           l1abandon
	JMP          l1loop8

l1loop4:
	CMPQ CX, $4
	JLT  l1reduce
	VMOVUPD (R11), Y2
	VMOVUPD (DI), Y3
	VSUBPD  Y3, Y2, Y2
	VANDPD  Y6, Y2, Y2
	VADDPD  Y2, Y0, Y0
	ADDQ $32, R11
	ADDQ $32, DI
	SUBQ $4, CX

l1reduce:
	VADDPD       Y1, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPD       X1, X0, X0
	VPERMILPD    $1, X0, X1
	VADDSD       X1, X0, X0

l1tail:
	TESTQ CX, CX
	JZ    l1store
	VMOVSD (R11), X2
	VSUBSD (DI), X2, X2
	VANDPD X6, X2, X2
	VADDSD X2, X0, X0
	ADDQ $8, R11
	ADDQ $8, DI
	DECQ CX
	JMP  l1tail

l1store:
	VMOVSD  X0, (R10)
	VUCOMISD X15, X0
	JA      l1next
	INCQ    DX
	JMP     l1next

l1abandon:
	VMOVSD X2, (R10)
	LEAQ   (DI)(CX*8), DI

l1next:
	ADDQ $8, R10
	DECQ R8
	JNZ  l1row

l1done:
	MOVQ DX, ret+88(FP)
	VZEROUPPER
	RET

// func l2Sums4Asm(probes []float64, data []float64, sums []float64, dim int, limit float64) int
//
// probes holds four contiguous rows (len 4*dim); sums holds 4 interleaved
// sums per data row (len 4*rows). dim must be a multiple of 4. Accumulators:
// Y0-Y3 even chunks, Y4-Y7 odd chunks (one pair per probe); Y8/Y9 the shared
// data chunks; Y10/Y11 rotating difference temps; Y8-Y11 again the
// reduction temps; Y15 limit in every lane; DX counts surviving rows.
TEXT ·l2Sums4Asm(SB), NOSPLIT, $0-96
	MOVQ probes_base+0(FP), SI
	MOVQ data_base+24(FP), DI
	MOVQ sums_base+48(FP), R10
	MOVQ sums_len+56(FP), R8
	SHRQ $2, R8              // rows = len(sums)/4
	MOVQ dim+72(FP), R9
	VBROADCASTSD limit+80(FP), Y15
	XORQ DX, DX
	TESTQ R8, R8
	JZ   l2x4done
	MOVQ R9, AX
	SHLQ $3, AX              // row stride in bytes
	LEAQ (SI)(AX*1), R12     // probe row 1
	LEAQ (R12)(AX*1), R13    // probe row 2
	LEAQ (R13)(AX*1), R14    // probe row 3

l2x4row:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ   R9, CX
	XORQ   BX, BX            // byte offset into the probe rows

l2x4loop8:
	CMPQ CX, $8
	JLT  l2x4loop4
	VMOVUPD (DI), Y8
	VMOVUPD 32(DI), Y9
	VMOVUPD (SI)(BX*1), Y10
	VSUBPD  Y8, Y10, Y10
	VFMADD231PD Y10, Y10, Y0
	VMOVUPD (R12)(BX*1), Y11
	VSUBPD  Y8, Y11, Y11
	VFMADD231PD Y11, Y11, Y1
	VMOVUPD (R13)(BX*1), Y10
	VSUBPD  Y8, Y10, Y10
	VFMADD231PD Y10, Y10, Y2
	VMOVUPD (R14)(BX*1), Y11
	VSUBPD  Y8, Y11, Y11
	VFMADD231PD Y11, Y11, Y3
	VMOVUPD 32(SI)(BX*1), Y10
	VSUBPD  Y9, Y10, Y10
	VFMADD231PD Y10, Y10, Y4
	VMOVUPD 32(R12)(BX*1), Y11
	VSUBPD  Y9, Y11, Y11
	VFMADD231PD Y11, Y11, Y5
	VMOVUPD 32(R13)(BX*1), Y10
	VSUBPD  Y9, Y10, Y10
	VFMADD231PD Y10, Y10, Y6
	VMOVUPD 32(R14)(BX*1), Y11
	VSUBPD  Y9, Y11, Y11
	VFMADD231PD Y11, Y11, Y7
	ADDQ $64, DI
	ADDQ $64, BX
	SUBQ $8, CX
	CMPQ BX, $64
	JNE  l2x4loop8
	// Checkpoint after the first block of 8: the final reduction's tree
	// on copies of the accumulators.
	VADDPD Y4, Y0, Y8
	VADDPD Y5, Y1, Y9
	VADDPD Y6, Y2, Y10
	VADDPD Y7, Y3, Y11
	VHADDPD Y9, Y8, Y8
	VHADDPD Y11, Y10, Y10
	VPERM2F128 $0x20, Y10, Y8, Y9
	VPERM2F128 $0x31, Y10, Y8, Y11
	VADDPD Y11, Y9, Y9
	VCMPPD $0x1e, Y15, Y9, Y10 // GT_OQ: lane > limit, false on NaN
	VMOVMSKPD Y10, AX
	CMPQ AX, $15
	JEQ  l2x4abandon
	JMP  l2x4loop8

l2x4loop4:
	CMPQ CX, $4
	JLT  l2x4reduce
	VMOVUPD (DI), Y8
	VMOVUPD (SI)(BX*1), Y10
	VSUBPD  Y8, Y10, Y10
	VFMADD231PD Y10, Y10, Y0
	VMOVUPD (R12)(BX*1), Y11
	VSUBPD  Y8, Y11, Y11
	VFMADD231PD Y11, Y11, Y1
	VMOVUPD (R13)(BX*1), Y10
	VSUBPD  Y8, Y10, Y10
	VFMADD231PD Y10, Y10, Y2
	VMOVUPD (R14)(BX*1), Y11
	VSUBPD  Y8, Y11, Y11
	VFMADD231PD Y11, Y11, Y3
	ADDQ $32, DI
	ADDQ $32, BX
	SUBQ $4, CX

l2x4reduce:
	// Fold odd-chunk accumulators into the even ones, then transpose-reduce
	// the four lane sums into one vector [s0 s1 s2 s3].
	VADDPD Y4, Y0, Y0
	VADDPD Y5, Y1, Y1
	VADDPD Y6, Y2, Y2
	VADDPD Y7, Y3, Y3
	VHADDPD Y1, Y0, Y8       // [a0+a1, b0+b1, a2+a3, b2+b3]
	VHADDPD Y3, Y2, Y9       // [c0+c1, d0+d1, c2+c3, d2+d3]
	VPERM2F128 $0x20, Y9, Y8, Y10
	VPERM2F128 $0x31, Y9, Y8, Y11
	VADDPD Y11, Y10, Y10
	VMOVUPD Y10, (R10)
	VCMPPD $0x1e, Y15, Y10, Y11
	VMOVMSKPD Y11, AX
	CMPQ AX, $15
	JEQ  l2x4next
	INCQ DX
	JMP  l2x4next

l2x4abandon:
	// All four partial sums are > limit: store them and skip the row's rest.
	VMOVUPD Y9, (R10)
	LEAQ (DI)(CX*8), DI

l2x4next:
	ADDQ $32, R10
	DECQ R8
	JNZ  l2x4row

l2x4done:
	MOVQ DX, ret+88(FP)
	VZEROUPPER
	RET

// func l1Sums4Asm(probes []float64, data []float64, sums []float64, dim int, limit float64) int
//
// The L1 statistic of l2Sums4Asm: same layout, registers and dim%4
// requirement, with the absolute value masked via absmask in Y12.
TEXT ·l1Sums4Asm(SB), NOSPLIT, $0-96
	MOVQ probes_base+0(FP), SI
	MOVQ data_base+24(FP), DI
	MOVQ sums_base+48(FP), R10
	MOVQ sums_len+56(FP), R8
	SHRQ $2, R8
	MOVQ dim+72(FP), R9
	VBROADCASTSD limit+80(FP), Y15
	VMOVUPD absmask<>(SB), Y12
	XORQ DX, DX
	TESTQ R8, R8
	JZ   l1x4done
	MOVQ R9, AX
	SHLQ $3, AX
	LEAQ (SI)(AX*1), R12
	LEAQ (R12)(AX*1), R13
	LEAQ (R13)(AX*1), R14

l1x4row:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ   R9, CX
	XORQ   BX, BX

l1x4loop8:
	CMPQ CX, $8
	JLT  l1x4loop4
	VMOVUPD (DI), Y8
	VMOVUPD 32(DI), Y9
	VMOVUPD (SI)(BX*1), Y10
	VSUBPD  Y8, Y10, Y10
	VANDPD  Y12, Y10, Y10
	VADDPD  Y10, Y0, Y0
	VMOVUPD (R12)(BX*1), Y11
	VSUBPD  Y8, Y11, Y11
	VANDPD  Y12, Y11, Y11
	VADDPD  Y11, Y1, Y1
	VMOVUPD (R13)(BX*1), Y10
	VSUBPD  Y8, Y10, Y10
	VANDPD  Y12, Y10, Y10
	VADDPD  Y10, Y2, Y2
	VMOVUPD (R14)(BX*1), Y11
	VSUBPD  Y8, Y11, Y11
	VANDPD  Y12, Y11, Y11
	VADDPD  Y11, Y3, Y3
	VMOVUPD 32(SI)(BX*1), Y10
	VSUBPD  Y9, Y10, Y10
	VANDPD  Y12, Y10, Y10
	VADDPD  Y10, Y4, Y4
	VMOVUPD 32(R12)(BX*1), Y11
	VSUBPD  Y9, Y11, Y11
	VANDPD  Y12, Y11, Y11
	VADDPD  Y11, Y5, Y5
	VMOVUPD 32(R13)(BX*1), Y10
	VSUBPD  Y9, Y10, Y10
	VANDPD  Y12, Y10, Y10
	VADDPD  Y10, Y6, Y6
	VMOVUPD 32(R14)(BX*1), Y11
	VSUBPD  Y9, Y11, Y11
	VANDPD  Y12, Y11, Y11
	VADDPD  Y11, Y7, Y7
	ADDQ $64, DI
	ADDQ $64, BX
	SUBQ $8, CX
	CMPQ BX, $64
	JNE  l1x4loop8
	// Checkpoint after the first block of 8: the final reduction's tree
	// on copies of the accumulators.
	VADDPD Y4, Y0, Y8
	VADDPD Y5, Y1, Y9
	VADDPD Y6, Y2, Y10
	VADDPD Y7, Y3, Y11
	VHADDPD Y9, Y8, Y8
	VHADDPD Y11, Y10, Y10
	VPERM2F128 $0x20, Y10, Y8, Y9
	VPERM2F128 $0x31, Y10, Y8, Y11
	VADDPD Y11, Y9, Y9
	VCMPPD $0x1e, Y15, Y9, Y10
	VMOVMSKPD Y10, AX
	CMPQ AX, $15
	JEQ  l1x4abandon
	JMP  l1x4loop8

l1x4loop4:
	CMPQ CX, $4
	JLT  l1x4reduce
	VMOVUPD (DI), Y8
	VMOVUPD (SI)(BX*1), Y10
	VSUBPD  Y8, Y10, Y10
	VANDPD  Y12, Y10, Y10
	VADDPD  Y10, Y0, Y0
	VMOVUPD (R12)(BX*1), Y11
	VSUBPD  Y8, Y11, Y11
	VANDPD  Y12, Y11, Y11
	VADDPD  Y11, Y1, Y1
	VMOVUPD (R13)(BX*1), Y10
	VSUBPD  Y8, Y10, Y10
	VANDPD  Y12, Y10, Y10
	VADDPD  Y10, Y2, Y2
	VMOVUPD (R14)(BX*1), Y11
	VSUBPD  Y8, Y11, Y11
	VANDPD  Y12, Y11, Y11
	VADDPD  Y11, Y3, Y3
	ADDQ $32, DI
	ADDQ $32, BX
	SUBQ $4, CX

l1x4reduce:
	VADDPD Y4, Y0, Y0
	VADDPD Y5, Y1, Y1
	VADDPD Y6, Y2, Y2
	VADDPD Y7, Y3, Y3
	VHADDPD Y1, Y0, Y8
	VHADDPD Y3, Y2, Y9
	VPERM2F128 $0x20, Y9, Y8, Y10
	VPERM2F128 $0x31, Y9, Y8, Y11
	VADDPD Y11, Y10, Y10
	VMOVUPD Y10, (R10)
	VCMPPD $0x1e, Y15, Y10, Y11
	VMOVMSKPD Y11, AX
	CMPQ AX, $15
	JEQ  l1x4next
	INCQ DX
	JMP  l1x4next

l1x4abandon:
	VMOVUPD Y9, (R10)
	LEAQ (DI)(CX*8), DI

l1x4next:
	ADDQ $32, R10
	DECQ R8
	JNZ  l1x4row

l1x4done:
	MOVQ DX, ret+88(FP)
	VZEROUPPER
	RET

// func cpuidex(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidex(SB), NOSPLIT, $0-24
	MOVL eaxIn+0(FP), AX
	MOVL ecxIn+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

	.text
	.globl	_ZN19asm_simd_scalarized8run_simd17h0123456789abcdefE
	.p2align	4, 0x90
_ZN19asm_simd_scalarized8run_simd17h0123456789abcdefE:
	.cfi_startproc
	movups	(%rdi), %xmm0
	mulps	%xmm1, %xmm0
	addps	%xmm2, %xmm0
	ucomiss	%xmm3, %xmm0
	cvttss2si	%xmm0, %eax
	cvtsi2ss	%eax, %xmm4
	movups	%xmm0, (%rdi)
	retq
	.cfi_endproc

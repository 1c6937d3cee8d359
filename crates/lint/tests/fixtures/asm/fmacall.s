	.text
	.globl	_ZN13asm_simd_fmaf8run_simd17h0123456789abcdefE
	.p2align	4, 0x90
_ZN13asm_simd_fmaf8run_simd17h0123456789abcdefE:
	.cfi_startproc
	pushq	%rbx
	movq	fmaf@GOTPCREL(%rip), %rbx
	leaq	.Lfmaf_table(%rip), %rax
	movups	(%rdi), %xmm0
	mulps	%xmm1, %xmm0
	addps	%xmm2, %xmm0
	movups	%xmm0, (%rdi)
	callq	*%rbx
	popq	%rbx
	jmpq	*fmaf@GOTPCREL(%rip)
	.cfi_endproc

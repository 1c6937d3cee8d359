	.text
	.globl	_ZN24asm_algorithmic_unmarked15run_algorithmic17h0123456789abcdefE
	.p2align	4, 0x90
_ZN24asm_algorithmic_unmarked15run_algorithmic17h0123456789abcdefE:
	.cfi_startproc
	vmovups	(%rdi), %ymm0
	vmulps	%ymm1, %ymm0, %ymm0
	vmovups	%ymm0, (%rdi)
	vzeroupper
	retq
	.cfi_endproc

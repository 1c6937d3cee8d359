	.text
	.globl	_ZN10ninja_simd3isa8dispatch8run_avx217h0123456789abcdefE
	.p2align	4, 0x90
_ZN10ninja_simd3isa8dispatch8run_avx217h0123456789abcdefE:
	.cfi_startproc
	jmp	_ZN55_$LT$outlined..Op$u20$as$u20$ninja_simd..isa..IsaOp$GT$3run17h1111111111111111E
	.cfi_endproc
_ZN55_$LT$outlined..Op$u20$as$u20$ninja_simd..isa..IsaOp$GT$3run17h1111111111111111E:
	.cfi_startproc
	vmovups	(%rdi), %ymm0
	vmovups	(%rsi), %ymm1
	vmovups	(%rdx), %ymm2
	callq	_RNvNtNtNtCs1234_4core9core_arch3x863fma15__mm256_fmadd_ps
	vmovups	%ymm0, (%rdi)
	retq
	.cfi_endproc
_ZN49_$LT$outlined..Op$u20$as$u20$core..fmt..Debug$GT$3fmt17h2222222222222222E:
	.cfi_startproc
	callq	_RNvNtNtNtCs1234_4core9core_arch3x863avx16__mm256_storeu_ps
	retq
	.cfi_endproc

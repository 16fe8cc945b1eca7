#include "textflag.h"

// The split-nibble bodies of mulAdd and mulAdd2 (kernel_amd64.go). A table
// t holds c·x in t[x] and c·(x<<4) in t[16+x] for x < 16; VPSHUFB looks
// up all 32 low nibbles of a source block in the first half and all high
// nibbles in the second, and the XOR of the two lookups is c·src. Each
// body covers len(src) &^ 31 bytes with unaligned loads; the Go loops
// finish the tail.

// func hasAVX2() bool
TEXT ·hasAVX2(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JB   done // no leaf 7
	MOVL $1, AX
	CPUID
	ANDL $0x18000000, CX // OSXSAVE and AVX
	CMPL CX, $0x18000000
	JNE  done
	XORL CX, CX
	XGETBV
	ANDL $6, AX // the OS saves XMM and YMM state
	CMPL AX, $6
	JNE  done
	MOVL $7, AX
	XORL CX, CX
	CPUID
	SHRL $5, BX // AVX2
	ANDL $1, BX
	MOVB BX, ret+0(FP)

done:
	RET

// func mulAddAVX2(t *[32]byte, src, dst []byte)
TEXT ·mulAddAVX2(SB), NOSPLIT, $0-56
	MOVQ t+0(FP), AX
	MOVQ src_base+8(FP), SI
	MOVQ src_len+16(FP), CX
	MOVQ dst_base+32(FP), DI
	SHRQ $5, CX
	JZ   done
	VBROADCASTI128 (AX), Y0   // c·low nibble
	VBROADCASTI128 16(AX), Y1 // c·high nibble
	MOVQ $0x0f, DX
	MOVQ DX, X2
	VPBROADCASTB X2, Y2

loop:
	VMOVDQU (SI), Y3
	VPSRLQ  $4, Y3, Y4
	VPAND   Y2, Y3, Y3
	VPAND   Y2, Y4, Y4
	VPSHUFB Y3, Y0, Y3
	VPSHUFB Y4, Y1, Y4
	VPXOR   Y3, Y4, Y3
	VPXOR   (DI), Y3, Y3
	VMOVDQU Y3, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     loop
	VZEROUPPER

done:
	RET

// func mulAdd2AVX2(t *[2][32]byte, src, d0, d1 []byte)
TEXT ·mulAdd2AVX2(SB), NOSPLIT, $0-80
	MOVQ t+0(FP), AX
	MOVQ src_base+8(FP), SI
	MOVQ src_len+16(FP), CX
	MOVQ d0_base+32(FP), DI
	MOVQ d1_base+56(FP), R8
	SHRQ $5, CX
	JZ   done
	VBROADCASTI128 (AX), Y0   // c0·low nibble
	VBROADCASTI128 16(AX), Y1 // c0·high nibble
	VBROADCASTI128 32(AX), Y2 // c1·low nibble
	VBROADCASTI128 48(AX), Y3 // c1·high nibble
	MOVQ $0x0f, DX
	MOVQ DX, X4
	VPBROADCASTB X4, Y4

loop:
	VMOVDQU (SI), Y5
	VPSRLQ  $4, Y5, Y6
	VPAND   Y4, Y5, Y5
	VPAND   Y4, Y6, Y6
	VPSHUFB Y5, Y0, Y7
	VPSHUFB Y6, Y1, Y8
	VPXOR   Y7, Y8, Y7
	VPXOR   (DI), Y7, Y7
	VMOVDQU Y7, (DI)
	VPSHUFB Y5, Y2, Y7
	VPSHUFB Y6, Y3, Y8
	VPXOR   Y7, Y8, Y7
	VPXOR   (R8), Y7, Y7
	VMOVDQU Y7, (R8)
	ADDQ    $32, SI
	ADDQ    $32, DI
	ADDQ    $32, R8
	DECQ    CX
	JNZ     loop
	VZEROUPPER

done:
	RET

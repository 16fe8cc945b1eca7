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

// func hasGFNI() bool
TEXT ·hasGFNI(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JB   done // no leaf 7
	MOVL $7, AX
	XORL CX, CX
	CPUID
	SHRL $8, CX // GFNI
	ANDL $1, CX
	MOVB CX, ret+0(FP)

done:
	RET

// The GFNI body of Apply (applyGFNI in kernel_amd64.go) is output
// stationary: for each 32-byte column of the shards it holds R ≤ 8
// destination rows in Y0–Y(R−1), folds every source column into them and
// stores each destination once. Per (source, row) that is one broadcast of
// the coefficient's bit-matrix from mats, one VGF2P8AFFINEQB of the
// source block (Y8) against it and one VPXOR. mats holds 8 words a
// source, row r's at 8·r; srcs holds slice headers (24 bytes each) and so
// does dst. add XORs the sums into the destinations instead of storing
// them. The Go side guarantees cols ≥ 1 and n a non-zero multiple of 32.
// With up to six rows the loop steps 64 bytes while it can (COLUMNS64),
// which halves the loop, pointer and broadcast work per byte.

// ROW folds row r's product into its accumulator: off is 8·r.
#define ROW(off, acc) VPBROADCASTQ off(BX), Y9; VGF2P8AFFINEQB $0, Y9, Y8, Y9; VPXOR Y9, acc, acc

// PUT stores an accumulator to destination r (off is 24·r); XPUT XORs it in.
#define PUT(off, acc) MOVQ off(DI), R11; VMOVDQU acc, (R11)(R8*1)
#define XPUT(off, acc) MOVQ off(DI), R11; VPXOR (R11)(R8*1), acc, acc; VMOVDQU acc, (R11)(R8*1)

#define ZERO1 VPXOR Y0, Y0, Y0
#define ZERO2 ZERO1; VPXOR Y1, Y1, Y1
#define ZERO3 ZERO2; VPXOR Y2, Y2, Y2
#define ZERO4 ZERO3; VPXOR Y3, Y3, Y3
#define ZERO5 ZERO4; VPXOR Y4, Y4, Y4
#define ZERO6 ZERO5; VPXOR Y5, Y5, Y5
#define ZERO7 ZERO6; VPXOR Y6, Y6, Y6
#define ZERO8 ZERO7; VPXOR Y7, Y7, Y7

#define ROWS1 ROW(0, Y0)
#define ROWS2 ROWS1; ROW(8, Y1)
#define ROWS3 ROWS2; ROW(16, Y2)
#define ROWS4 ROWS3; ROW(24, Y3)
#define ROWS5 ROWS4; ROW(32, Y4)
#define ROWS6 ROWS5; ROW(40, Y5)
#define ROWS7 ROWS6; ROW(48, Y6)
#define ROWS8 ROWS7; ROW(56, Y7)

#define PUTS1 PUT(0, Y0)
#define PUTS2 PUTS1; PUT(24, Y1)
#define PUTS3 PUTS2; PUT(48, Y2)
#define PUTS4 PUTS3; PUT(72, Y3)
#define PUTS5 PUTS4; PUT(96, Y4)
#define PUTS6 PUTS5; PUT(120, Y5)
#define PUTS7 PUTS6; PUT(144, Y6)
#define PUTS8 PUTS7; PUT(168, Y7)

#define XPUTS1 XPUT(0, Y0)
#define XPUTS2 XPUTS1; XPUT(24, Y1)
#define XPUTS3 XPUTS2; XPUT(48, Y2)
#define XPUTS4 XPUTS3; XPUT(72, Y3)
#define XPUTS5 XPUTS4; XPUT(96, Y4)
#define XPUTS6 XPUTS5; XPUT(120, Y5)
#define XPUTS7 XPUTS6; XPUT(144, Y6)
#define XPUTS8 XPUTS7; XPUT(168, Y7)

// With at most six rows the column loop takes 64 bytes a step: row r
// accumulates the first 32 bytes in Y(r) and the second in Y(r+6), the
// source block is Y12 and Y13, and one broadcast matrix (Y14) serves both
// halves, its products passing through Y15.
#define ROW64(off, accA, accB) VPBROADCASTQ off(BX), Y14; VGF2P8AFFINEQB $0, Y14, Y12, Y15; VPXOR Y15, accA, accA; VGF2P8AFFINEQB $0, Y14, Y13, Y15; VPXOR Y15, accB, accB
#define PUT64(off, accA, accB) MOVQ off(DI), R11; VMOVDQU accA, (R11)(R8*1); VMOVDQU accB, 32(R11)(R8*1)
#define XPUT64(off, accA, accB) MOVQ off(DI), R11; VPXOR (R11)(R8*1), accA, accA; VPXOR 32(R11)(R8*1), accB, accB; VMOVDQU accA, (R11)(R8*1); VMOVDQU accB, 32(R11)(R8*1)

#define ZERO64_1 VPXOR Y0, Y0, Y0; VPXOR Y6, Y6, Y6
#define ZERO64_2 ZERO64_1; VPXOR Y1, Y1, Y1; VPXOR Y7, Y7, Y7
#define ZERO64_3 ZERO64_2; VPXOR Y2, Y2, Y2; VPXOR Y8, Y8, Y8
#define ZERO64_4 ZERO64_3; VPXOR Y3, Y3, Y3; VPXOR Y9, Y9, Y9
#define ZERO64_5 ZERO64_4; VPXOR Y4, Y4, Y4; VPXOR Y10, Y10, Y10
#define ZERO64_6 ZERO64_5; VPXOR Y5, Y5, Y5; VPXOR Y11, Y11, Y11

#define ROWS64_1 ROW64(0, Y0, Y6)
#define ROWS64_2 ROWS64_1; ROW64(8, Y1, Y7)
#define ROWS64_3 ROWS64_2; ROW64(16, Y2, Y8)
#define ROWS64_4 ROWS64_3; ROW64(24, Y3, Y9)
#define ROWS64_5 ROWS64_4; ROW64(32, Y4, Y10)
#define ROWS64_6 ROWS64_5; ROW64(40, Y5, Y11)

#define PUTS64_1 PUT64(0, Y0, Y6)
#define PUTS64_2 PUTS64_1; PUT64(24, Y1, Y7)
#define PUTS64_3 PUTS64_2; PUT64(48, Y2, Y8)
#define PUTS64_4 PUTS64_3; PUT64(72, Y3, Y9)
#define PUTS64_5 PUTS64_4; PUT64(96, Y4, Y10)
#define PUTS64_6 PUTS64_5; PUT64(120, Y5, Y11)

#define XPUTS64_1 XPUT64(0, Y0, Y6)
#define XPUTS64_2 XPUTS64_1; XPUT64(24, Y1, Y7)
#define XPUTS64_3 XPUTS64_2; XPUT64(48, Y2, Y8)
#define XPUTS64_4 XPUTS64_3; XPUT64(72, Y3, Y9)
#define XPUTS64_5 XPUTS64_4; XPUT64(96, Y4, Y10)
#define XPUTS64_6 XPUTS64_5; XPUT64(120, Y5, Y11)

// COLUMNS64 runs the 64-byte steps while 64 bytes are left and jumps to
// the 32-byte loop (col32L) for a last block of 32.
#define COLUMNS64(colL, srcL, addL, nextL, col32L, ZERO, ROWS, PUTS, XPUTS) \
colL: \
	LEAQ 64(R8), R11; \
	CMPQ R11, R9; \
	JA   col32L; \
	ZERO; \
	MOVQ DX, SI; \
	MOVQ AX, BX; \
	MOVQ R12, CX; \
srcL: \
	MOVQ (SI), R10; \
	VMOVDQU (R10)(R8*1), Y12; \
	VMOVDQU 32(R10)(R8*1), Y13; \
	ROWS; \
	ADDQ $24, SI; \
	ADDQ $64, BX; \
	DECQ CX; \
	JNZ  srcL; \
	TESTB R13, R13; \
	JNZ  addL; \
	PUTS; \
	JMP  nextL; \
addL: \
	XPUTS; \
nextL: \
	ADDQ $64, R8; \
	CMPQ R8, R9; \
	JB   colL; \
	JMP  done

// COLUMNS is the column loop for one row count; the label arguments keep
// each expansion's labels apart.
#define COLUMNS(colL, srcL, addL, nextL, ZERO, ROWS, PUTS, XPUTS) \
colL: \
	ZERO; \
	MOVQ DX, SI; \
	MOVQ AX, BX; \
	MOVQ R12, CX; \
srcL: \
	MOVQ (SI), R10; \
	VMOVDQU (R10)(R8*1), Y8; \
	ROWS; \
	ADDQ $24, SI; \
	ADDQ $64, BX; \
	DECQ CX; \
	JNZ  srcL; \
	TESTB R13, R13; \
	JNZ  addL; \
	PUTS; \
	JMP  nextL; \
addL: \
	XPUTS; \
nextL: \
	ADDQ $32, R8; \
	CMPQ R8, R9; \
	JB   colL; \
	JMP  done

// func gfniApply(mats *[gfniCols][gfniRows]uint64, srcs *[gfniCols][]byte, cols int, dst [][]byte, n int, add bool)
TEXT ·gfniApply(SB), NOSPLIT, $0-57
	MOVQ mats+0(FP), AX
	MOVQ srcs+8(FP), DX
	MOVQ cols+16(FP), R12
	MOVQ dst_base+24(FP), DI
	MOVQ dst_len+32(FP), CX
	MOVQ n+48(FP), R9
	MOVB add+56(FP), R13
	XORQ R8, R8
	CMPQ CX, $1
	JEQ  rows1
	CMPQ CX, $2
	JEQ  rows2
	CMPQ CX, $3
	JEQ  rows3
	CMPQ CX, $4
	JEQ  rows4
	CMPQ CX, $5
	JEQ  rows5
	CMPQ CX, $6
	JEQ  rows6
	CMPQ CX, $7
	JEQ  rows7
	COLUMNS(col8, src8, add8, next8, ZERO8, ROWS8, PUTS8, XPUTS8)

rows7:
	COLUMNS(col7, src7, add7, next7, ZERO7, ROWS7, PUTS7, XPUTS7)

rows6:
	COLUMNS64(wcol6, wsrc6, wadd6, wnext6, col6, ZERO64_6, ROWS64_6, PUTS64_6, XPUTS64_6)
	COLUMNS(col6, src6, add6, next6, ZERO6, ROWS6, PUTS6, XPUTS6)

rows5:
	COLUMNS64(wcol5, wsrc5, wadd5, wnext5, col5, ZERO64_5, ROWS64_5, PUTS64_5, XPUTS64_5)
	COLUMNS(col5, src5, add5, next5, ZERO5, ROWS5, PUTS5, XPUTS5)

rows4:
	COLUMNS64(wcol4, wsrc4, wadd4, wnext4, col4, ZERO64_4, ROWS64_4, PUTS64_4, XPUTS64_4)
	COLUMNS(col4, src4, add4, next4, ZERO4, ROWS4, PUTS4, XPUTS4)

rows3:
	COLUMNS64(wcol3, wsrc3, wadd3, wnext3, col3, ZERO64_3, ROWS64_3, PUTS64_3, XPUTS64_3)
	COLUMNS(col3, src3, add3, next3, ZERO3, ROWS3, PUTS3, XPUTS3)

rows2:
	COLUMNS64(wcol2, wsrc2, wadd2, wnext2, col2, ZERO64_2, ROWS64_2, PUTS64_2, XPUTS64_2)
	COLUMNS(col2, src2, add2, next2, ZERO2, ROWS2, PUTS2, XPUTS2)

rows1:
	COLUMNS64(wcol1, wsrc1, wadd1, wnext1, col1, ZERO64_1, ROWS64_1, PUTS64_1, XPUTS64_1)
	COLUMNS(col1, src1, add1, next1, ZERO1, ROWS1, PUTS1, XPUTS1)

done:
	VZEROUPPER
	RET

// Package gf256 implements arithmetic over the Galois field GF(2^8) used by
// the Reed–Solomon and LRC codecs.
//
// The field is constructed with the primitive polynomial
// x^8 + x^4 + x^3 + x^2 + 1 (0x11d), the same polynomial used by most
// storage erasure codecs (including Intel ISA-L, which the paper benchmarks
// in Figure 11). Multiplication uses 256-entry log/exp tables. The
// shard-length kernel, Apply, multiplies whole 32-byte vectors on amd64
// (kernel_amd64.s): with one GFNI affine instruction per coefficient,
// eight output rows per pass, where the CPU has GFNI; with ISA-L's
// split-nibble shuffles where it has AVX2 only; and otherwise with Go
// loops over a per-multiplier 256-entry product table. Code (code.go) is
// the systematic linear code written once on top of Apply; rs and lrc
// are two generator matrices for it.
package gf256

import "encoding/binary"

// Poly is the primitive polynomial generating the field, with the x^8 term
// removed (0x11d & 0xff plus the carry handling in genTables).
const Poly = 0x1d

var (
	expTable [512]byte // exp[i] = g^i, doubled to avoid a mod in Mul
	logTable [256]byte // log[x] = i such that g^i = x; log[0] is unused
	// mulTable[a] is the full product row a*b for all b. 64 KiB total.
	mulTable [256][256]byte
	// inverse[x] = x^-1; inverse[0] is 0 and must never be used.
	inverse [256]byte
)

func init() {
	genTables()
	genKernelTables()
}

func genTables() {
	x := byte(1)
	for i := 0; i < 255; i++ {
		expTable[i] = x
		logTable[x] = byte(i)
		// multiply x by the generator (2) in GF(2^8)
		carry := x&0x80 != 0
		x <<= 1
		if carry {
			x ^= Poly
		}
	}
	for i := 255; i < 512; i++ {
		expTable[i] = expTable[i-255]
	}
	for a := 1; a < 256; a++ {
		la := int(logTable[a])
		for b := 1; b < 256; b++ {
			mulTable[a][b] = expTable[la+int(logTable[b])]
		}
		inverse[a] = expTable[255-la]
	}
}

// Add returns a+b in GF(2^8). Addition is XOR.
func Add(a, b byte) byte { return a ^ b }

// Mul returns a*b in GF(2^8).
func Mul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return expTable[int(logTable[a])+int(logTable[b])]
}

// Div returns a/b in GF(2^8). It panics if b is zero, mirroring the
// semantics of Go's built-in integer division.
func Div(a, b byte) byte {
	if b == 0 {
		//lint:allow nakedpanic division by zero mirrors built-in integer division semantics
		panic("gf256: division by zero")
	}
	if a == 0 {
		return 0
	}
	return expTable[int(logTable[a])+255-int(logTable[b])]
}

// Inv returns the multiplicative inverse of a. It panics if a is zero,
// mirroring the semantics of Go's built-in integer division.
func Inv(a byte) byte {
	if a == 0 {
		//lint:allow nakedpanic inverse of zero mirrors built-in integer division semantics
		panic("gf256: inverse of zero")
	}
	return inverse[a]
}

// Exp returns g^n for the field generator g=2. n may be any integer;
// it is reduced mod 255 (the multiplicative group order), so negative
// exponents denote inverse powers: Exp(-n) == Inv(Exp(n)).
func Exp(n int) byte {
	n %= 255
	if n < 0 {
		n += 255
	}
	return expTable[n]
}

// Log returns log_g(a). It panics if a is zero (zero is not in the
// multiplicative group), mirroring built-in integer division semantics.
func Log(a byte) int {
	if a == 0 {
		//lint:allow nakedpanic log of zero mirrors built-in integer division semantics
		panic("gf256: log of zero")
	}
	return int(logTable[a])
}

// Apply computes a matrix–shard product over GF(2^8), byte position by
// byte position: out[r] = Σ_c rows[r][c]·in[c]. It is the one
// shard-length kernel: encoding applies the generator's parity rows to
// the data shards, decoding applies decode rows to the survivors. rows
// must be a len(out)×len(in) coefficient matrix and every shard of in
// and out the same length, or Apply panics; out is overwritten and must
// not overlap in.
//
// On a GFNI host applyGFNI does the work, up to eight rows per pass over
// the sources. Elsewhere rows are taken two at a time so that one pass
// over a source shard feeds two outputs (mulAdd2); a zero coefficient
// costs nothing and a coefficient of 1 is a plain XOR, which is what
// keeps an LRC local parity row — or a decode row that reduced to one —
// at XOR speed.
func Apply(rows, in, out [][]byte) {
	if !applicable(rows, in, out) {
		//lint:allow nakedpanic hot-kernel precondition; the bounds-check analogue for mismatched shard geometry
		panic("gf256: Apply shape mismatch")
	}
	if applyGFNI(rows, in, out) {
		return
	}
	for len(rows) >= 2 {
		r0, r1, d0, d1 := rows[0], rows[1], out[0], out[1]
		clear(d0)
		clear(d1)
		for c, src := range in {
			if c0, c1 := r0[c], r1[c]; c0 > 1 && c1 > 1 {
				mulAdd2(c0, c1, src, d0, d1)
			} else {
				mulAdd(c0, src, d0)
				mulAdd(c1, src, d1)
			}
		}
		rows, out = rows[2:], out[2:]
	}
	if len(rows) == 1 {
		clear(out[0])
		for c, src := range in {
			mulAdd(rows[0][c], src, out[0])
		}
	}
}

// applicable reports whether rows is a len(out)×len(in) matrix and the
// shards of in and out share one length.
func applicable(rows, in, out [][]byte) bool {
	if len(rows) != len(out) {
		return false
	}
	if len(out) == 0 {
		return true
	}
	n := len(out[0])
	for _, src := range in {
		if len(src) != n {
			return false
		}
	}
	for r, d := range out {
		if len(d) != n || len(rows[r]) != len(in) {
			return false
		}
	}
	return true
}

// The loops below are written in "slice-advance" form:
//
//	for len(src) >= N && len(dst) >= N { ... src, dst = src[N:], dst[N:] }
//
// rather than the indexed form `for i := 0; i+N <= len(src); i += N`.
// The compiler's prove pass eliminates every bounds check in the
// slice-advance form (constant indexes below N against a known minimum
// length), whereas the indexed form keeps a check per access; the
// hotbce analyzer reads the compiler's `-d=ssa/check_bce` output and
// fails any check kept in these loops. Word loads and stores go
// through encoding/binary's little-endian views, which compile to
// single moves on little-endian targets and stay correct elsewhere.

// mulAdd sets dst[i] ^= c·src[i] for equally long src and dst: one matrix
// coefficient applied to one shard (or to one row of a Matrix).
//
//mlec:hot per-byte codec kernel
func mulAdd(c byte, src, dst []byte) {
	if c == 0 {
		return
	}
	if c == 1 {
		XorSlice(src, dst)
		return
	}
	n := mulAddVec(c, src, dst)
	src, dst = src[n:], dst[n:]
	mt := &mulTable[c]
	// 16 bytes per iteration: byte loads feed the table row (always
	// in-bounds: a byte indexes a 256-entry array), products are
	// composed into two words and folded into dst word-wide.
	for len(src) >= 16 && len(dst) >= 16 {
		v := uint64(mt[src[0]]) |
			uint64(mt[src[1]])<<8 |
			uint64(mt[src[2]])<<16 |
			uint64(mt[src[3]])<<24 |
			uint64(mt[src[4]])<<32 |
			uint64(mt[src[5]])<<40 |
			uint64(mt[src[6]])<<48 |
			uint64(mt[src[7]])<<56
		w := uint64(mt[src[8]]) |
			uint64(mt[src[9]])<<8 |
			uint64(mt[src[10]])<<16 |
			uint64(mt[src[11]])<<24 |
			uint64(mt[src[12]])<<32 |
			uint64(mt[src[13]])<<40 |
			uint64(mt[src[14]])<<48 |
			uint64(mt[src[15]])<<56
		binary.LittleEndian.PutUint64(dst, binary.LittleEndian.Uint64(dst)^v)
		binary.LittleEndian.PutUint64(dst[8:], binary.LittleEndian.Uint64(dst[8:])^w)
		src, dst = src[16:], dst[16:]
	}
	for len(src) > 0 && len(dst) > 0 {
		dst[0] ^= mt[src[0]]
		src, dst = src[1:], dst[1:]
	}
}

// mulAdd2 sets d0[i] ^= c0·src[i] and d1[i] ^= c1·src[i] in one pass over
// src. mulAdd finishes the sub-32-byte tail of a vector body, so the pair
// table — 2 KiB of stack, built in 256 steps — is built only for the Go
// loop. Its entry s holds c0·s in bits 0–7 and c1·s in bits 32–39, so one
// byte lookup yields both products, and composing a word by shifting 8
// bits per source byte accumulates the c0 products in the low half and
// the c1 products in the high half without colliding.
//
//mlec:hot per-byte codec kernel
func mulAdd2(c0, c1 byte, src, d0, d1 []byte) {
	if n := mulAdd2Vec(c0, c1, src, d0, d1); n > 0 {
		mulAdd(c0, src[n:], d0[n:])
		mulAdd(c1, src[n:], d1[n:])
		return
	}
	var t [256]uint64
	m0, m1 := &mulTable[c0], &mulTable[c1]
	for i := range t {
		s := byte(i) // a byte index into a 256-entry array needs no bounds check
		t[s] = uint64(m0[s]) | uint64(m1[s])<<32
	}
	for len(src) >= 8 && len(d0) >= 8 && len(d1) >= 8 {
		a := t[src[0]] | t[src[1]]<<8 | t[src[2]]<<16 | t[src[3]]<<24
		b := t[src[4]] | t[src[5]]<<8 | t[src[6]]<<16 | t[src[7]]<<24
		// a, b each hold 4 c0-products (low 32 bits) and 4
		// c1-products (high 32 bits); recombine into one word per
		// destination.
		v := uint64(uint32(a)) | uint64(uint32(b))<<32
		w := a>>32 | b&0xffffffff00000000
		binary.LittleEndian.PutUint64(d0, binary.LittleEndian.Uint64(d0)^v)
		binary.LittleEndian.PutUint64(d1, binary.LittleEndian.Uint64(d1)^w)
		src, d0, d1 = src[8:], d0[8:], d1[8:]
	}
	for len(src) > 0 && len(d0) > 0 && len(d1) > 0 {
		e := t[src[0]]
		d0[0] ^= byte(e)
		d1[0] ^= byte(e >> 32)
		src, d0, d1 = src[1:], d0[1:], d1[1:]
	}
}

// XorSlice sets dst[i] ^= src[i] for all i, using word-wide XOR.
//
//mlec:hot per-byte codec kernel
func XorSlice(src, dst []byte) {
	if len(src) != len(dst) {
		//lint:allow nakedpanic hot-kernel precondition; the bounds-check analogue for mismatched shard geometry
		panic("gf256: XorSlice length mismatch")
	}
	// 32 bytes per iteration, then one word at a time, then bytes.
	for len(src) >= 32 && len(dst) >= 32 {
		binary.LittleEndian.PutUint64(dst, binary.LittleEndian.Uint64(dst)^binary.LittleEndian.Uint64(src))
		binary.LittleEndian.PutUint64(dst[8:], binary.LittleEndian.Uint64(dst[8:])^binary.LittleEndian.Uint64(src[8:]))
		binary.LittleEndian.PutUint64(dst[16:], binary.LittleEndian.Uint64(dst[16:])^binary.LittleEndian.Uint64(src[16:]))
		binary.LittleEndian.PutUint64(dst[24:], binary.LittleEndian.Uint64(dst[24:])^binary.LittleEndian.Uint64(src[24:]))
		src, dst = src[32:], dst[32:]
	}
	for len(src) >= 8 && len(dst) >= 8 {
		binary.LittleEndian.PutUint64(dst, binary.LittleEndian.Uint64(dst)^binary.LittleEndian.Uint64(src))
		src, dst = src[8:], dst[8:]
	}
	for len(src) > 0 && len(dst) > 0 {
		dst[0] ^= src[0]
		src, dst = src[1:], dst[1:]
	}
}

package gf256

// useVector selects the AVX2 bodies of kernel_amd64.s. It is set once, from
// what CPUID and XGETBV report; only tests clear it, to run the Go loops.
var useVector = hasAVX2()

// useGFNI selects Apply's GFNI body, on top of useVector's checks. It is
// set once, from CPUID; only tests clear it, to run the split-nibble
// bodies and the Go loops.
var useGFNI = useVector && hasGFNI()

// hasAVX2 reports whether the CPU has AVX and AVX2 and the OS saves the
// YMM registers.
func hasAVX2() bool

// hasGFNI reports whether the CPU has the Galois-field instructions.
func hasGFNI() bool

//go:noescape
func mulAddAVX2(t *[32]byte, src, dst []byte)

//go:noescape
func mulAdd2AVX2(t *[2][32]byte, src, d0, d1 []byte)

//go:noescape
func gfniApply(mats *[gfniCols][gfniRows]uint64, srcs *[gfniCols][]byte, cols int, dst [][]byte, n int, add bool)

// mulAddVec runs mulAdd's vector body over the first len(src) &^ 31 bytes
// and returns how many it did: none when useVector is off.
func mulAddVec(c byte, src, dst []byte) int {
	n := len(src) &^ 31
	if !useVector || n == 0 {
		return 0
	}
	var t [32]byte
	nibbleTables(c, &t)
	mulAddAVX2(&t, src[:n], dst[:n])
	return n
}

// mulAdd2Vec is mulAddVec for mulAdd2.
func mulAdd2Vec(c0, c1 byte, src, d0, d1 []byte) int {
	n := len(src) &^ 31
	if !useVector || n == 0 {
		return 0
	}
	var t [2][32]byte
	nibbleTables(c0, &t[0])
	nibbleTables(c1, &t[1])
	mulAdd2AVX2(&t, src[:n], d0[:n], d1[:n])
	return n
}

// nibbleTables sets t[x] = c·x and t[16+x] = c·(x<<4) for x < 16: c times
// a byte's low nibble and its high nibble, whose XOR is c times the byte.
func nibbleTables(c byte, t *[32]byte) {
	for x := range 16 {
		t[x], t[16+x] = mulTable[c][x], mulTable[c][x<<4]
	}
}

// affine[c] is multiplication by c as the 8×8 bit-matrix VGF2P8AFFINEQB
// applies: byte 7−i of the word is row i, whose bit j is bit i of c·2^j,
// so bit i of c·x is the parity of row i AND x. Multiplication by a
// constant is GF(2)-linear in any field, so the 0x11d field needs none of
// the instruction's own (AES) polynomial.
var affine [256]uint64

// genKernelTables builds affine from mulTable.
func genKernelTables() {
	for c := range affine {
		var m uint64
		for i := range 8 {
			var row byte
			for j := range 8 {
				row |= mulTable[c][1<<j] >> i & 1 << j
			}
			m |= uint64(row) << (8 * (7 - i))
		}
		affine[c] = m
	}
}

const (
	gfniRows = 8  // destination rows one pass holds in YMM accumulators
	gfniCols = 32 // source columns one pass reads; wider matrices take several
)

// gfniPass is one gfniApply call's operands: the source columns with a
// non-zero coefficient in the pass's rows and, for each, the bit-matrices
// of its coefficients in those rows.
type gfniPass struct {
	mats [gfniCols][gfniRows]uint64
	srcs [gfniCols][]byte
}

// applyGFNI is Apply's GFNI body: it reports false, doing nothing, when
// the host lacks GFNI or the shards are shorter than one 32-byte block.
// Rows are taken eight at a time; each group makes one pass over the
// first len &^ 31 bytes per 32 live source columns (the first pass stores,
// later ones XOR in), a column whose coefficients in the group are all
// zero is left out, and mulAdd finishes the tail of each row.
//
//mlec:hot per-byte codec kernel
func applyGFNI(rows, in, out [][]byte) bool {
	if !useGFNI || len(in) == 0 || len(out) == 0 || len(out[0]) < 32 {
		return false
	}
	n := len(out[0]) &^ 31
	var p gfniPass
	for len(rows) > 0 && len(out) > 0 {
		g := min(len(rows), len(out), gfniRows)
		grp, dst := rows[:g], out[:g]
		m, add := 0, false
		for c, src := range in {
			var col [gfniRows]uint64
			var nonzero byte
			for r, row := range grp {
				if c < len(row) { // always (Apply checked the shape); proves row[c]
					col[r] = affine[row[c]]
					nonzero |= row[c]
				}
			}
			if nonzero == 0 {
				continue
			}
			p.mats[m&(gfniCols-1)], p.srcs[m&(gfniCols-1)] = col, src
			if m++; m == gfniCols {
				gfniApply(&p.mats, &p.srcs, m, dst, n, add)
				m, add = 0, true
			}
		}
		if m > 0 {
			gfniApply(&p.mats, &p.srcs, m, dst, n, add)
		} else if !add {
			for _, d := range dst {
				clear(d)
			}
		}
		for r, d := range dst {
			if len(d) == n {
				break // no tail
			}
			// Every shard is len(d) long, so len &^ 31 is n; written
			// so, the slices need no bounds check.
			tail, row := d[len(d)&^31:], grp[r]
			clear(tail)
			for c, src := range in {
				if c < len(row) {
					mulAdd(row[c], src[len(src)&^31:], tail)
				}
			}
		}
		rows, out = rows[g:], out[g:]
	}
	return true
}

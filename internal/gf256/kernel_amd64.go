package gf256

// useVector selects the AVX2 bodies of kernel_amd64.s. It is set once, from
// what CPUID and XGETBV report; only tests clear it, to run the Go loops.
var useVector = hasAVX2()

// hasAVX2 reports whether the CPU has AVX and AVX2 and the OS saves the
// YMM registers.
func hasAVX2() bool

//go:noescape
func mulAddAVX2(t *[32]byte, src, dst []byte)

//go:noescape
func mulAdd2AVX2(t *[2][32]byte, src, d0, d1 []byte)

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

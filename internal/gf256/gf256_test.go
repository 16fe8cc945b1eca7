package gf256

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTablesConsistent(t *testing.T) {
	// exp and log must be inverse bijections on [1,255].
	seen := make(map[byte]bool)
	for i := 0; i < 255; i++ {
		v := Exp(i)
		if v == 0 {
			t.Fatalf("Exp(%d) = 0", i)
		}
		if seen[v] {
			t.Fatalf("Exp(%d) = %d repeats", i, v)
		}
		seen[v] = true
		if Log(v) != i {
			t.Fatalf("Log(Exp(%d)) = %d", i, Log(v))
		}
	}
	if len(seen) != 255 {
		t.Fatalf("exp table covers %d values, want 255", len(seen))
	}
}

// slowMul multiplies via shift-and-add, independent of the tables.
func slowMul(a, b byte) byte {
	var p byte
	for b != 0 {
		if b&1 != 0 {
			p ^= a
		}
		carry := a&0x80 != 0
		a <<= 1
		if carry {
			a ^= Poly
		}
		b >>= 1
	}
	return p
}

func TestMulMatchesSlowMul(t *testing.T) {
	for a := 0; a < 256; a++ {
		for b := 0; b < 256; b++ {
			if got, want := Mul(byte(a), byte(b)), slowMul(byte(a), byte(b)); got != want {
				t.Fatalf("Mul(%d,%d) = %d, want %d", a, b, got, want)
			}
		}
	}
}

func TestFieldAxiomsQuick(t *testing.T) {
	// Commutativity and associativity of Mul, distributivity over Add.
	if err := quick.Check(func(a, b, c byte) bool {
		if Mul(a, b) != Mul(b, a) {
			return false
		}
		if Mul(Mul(a, b), c) != Mul(a, Mul(b, c)) {
			return false
		}
		return Mul(a, Add(b, c)) == Add(Mul(a, b), Mul(a, c))
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestInverse(t *testing.T) {
	for a := 1; a < 256; a++ {
		if Mul(byte(a), Inv(byte(a))) != 1 {
			t.Fatalf("a * Inv(a) != 1 for a=%d", a)
		}
	}
}

func TestDiv(t *testing.T) {
	for a := 0; a < 256; a++ {
		for b := 1; b < 256; b++ {
			q := Div(byte(a), byte(b))
			if Mul(q, byte(b)) != byte(a) {
				t.Fatalf("Div(%d,%d)*%d != %d", a, b, b, a)
			}
		}
	}
	if Div(0, 7) != 0 {
		t.Fatal("0/b != 0")
	}
}

func TestDivByZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Div(1, 0) did not panic")
		}
	}()
	Div(1, 0)
}

func TestInvZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Inv(0) did not panic")
		}
	}()
	Inv(0)
}

// TestMulSlice holds a 1×1 Apply to its definition: out = c·src, whatever
// out held before.
func TestMulSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 7, 8, 9, 64, 1000} {
		src := make([]byte, n)
		rng.Read(src)
		for _, c := range []byte{0, 1, 2, 0x1d, 255} {
			dst := make([]byte, n)
			rng.Read(dst)
			Apply([][]byte{{c}}, [][]byte{src}, [][]byte{dst})
			for i := range src {
				if dst[i] != Mul(c, src[i]) {
					t.Fatalf("Apply 1x1 c=%d n=%d idx=%d", c, n, i)
				}
			}
		}
	}
}

// TestMulAddSlice holds the accumulate loop under Apply and Matrix.reduce
// to its definition: dst ^= c·src.
func TestMulAddSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{0, 1, 9, 100} {
		src := make([]byte, n)
		dst := make([]byte, n)
		rng.Read(src)
		rng.Read(dst)
		orig := append([]byte(nil), dst...)
		for _, c := range []byte{0, 1, 3, 200} {
			d2 := append([]byte(nil), orig...)
			mulAdd(c, src, d2)
			for i := range src {
				want := orig[i] ^ Mul(c, src[i])
				if d2[i] != want {
					t.Fatalf("mulAdd c=%d n=%d idx=%d got %d want %d", c, n, i, d2[i], want)
				}
			}
		}
	}
}

func TestXorSliceSelfInverse(t *testing.T) {
	if err := quick.Check(func(a, b []byte) bool {
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		a, b = a[:n], b[:n]
		orig := append([]byte(nil), b...)
		XorSlice(a, b)
		XorSlice(a, b)
		return bytes.Equal(b, orig)
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSliceLengthMismatchPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"Apply":    func() { Apply([][]byte{{2}}, [][]byte{make([]byte, 3)}, [][]byte{make([]byte, 4)}) },
		"XorSlice": func() { XorSlice(make([]byte, 3), make([]byte, 4)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s with mismatched lengths did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestExpNegative(t *testing.T) {
	// Negative exponents denote inverse powers: Exp(-n) == Inv(Exp(n)).
	for n := 0; n < 300; n++ {
		if got, want := Exp(-n), Inv(Exp(n)); got != want {
			t.Fatalf("Exp(%d) = %d, want Inv(Exp(%d)) = %d", -n, got, n, want)
		}
	}
	if Exp(-255) != Exp(0) {
		t.Fatal("Exp is not periodic mod 255 for negative exponents")
	}
}

package gf256

import (
	"math/rand"
	"testing"
)

func randomNonSingular(t *testing.T, n int, rng *rand.Rand) *Matrix {
	t.Helper()
	for tries := 0; tries < 100; tries++ {
		m := NewMatrix(n, n)
		rng.Read(m.Data)
		if _, err := m.Invert(); err == nil {
			return m
		}
	}
	t.Fatal("could not generate a non-singular matrix")
	return nil
}

func TestIdentity(t *testing.T) {
	id := Identity(4)
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			want := byte(0)
			if r == c {
				want = 1
			}
			if id.At(r, c) != want {
				t.Fatalf("Identity(4) at (%d,%d) = %d", r, c, id.At(r, c))
			}
		}
	}
}

func TestMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := NewMatrix(5, 5)
	rng.Read(m.Data)
	got := m.Mul(Identity(5))
	for i := range got.Data {
		if got.Data[i] != m.Data[i] {
			t.Fatal("M·I != M")
		}
	}
	got = Identity(5).Mul(m)
	for i := range got.Data {
		if got.Data[i] != m.Data[i] {
			t.Fatal("I·M != M")
		}
	}
}

func TestInvertRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{1, 2, 3, 5, 10, 17} {
		m := randomNonSingular(t, n, rng)
		inv, err := m.Invert()
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		prod := m.Mul(inv)
		id := Identity(n)
		for i := range prod.Data {
			if prod.Data[i] != id.Data[i] {
				t.Fatalf("n=%d: M·M⁻¹ != I", n)
			}
		}
	}
}

func TestInvertSingular(t *testing.T) {
	m := NewMatrix(3, 3)
	// Two identical rows → singular.
	for c := 0; c < 3; c++ {
		m.Set(0, c, byte(c+1))
		m.Set(1, c, byte(c+1))
		m.Set(2, c, byte(2*c+5))
	}
	if _, err := m.Invert(); err != ErrSingular {
		t.Fatalf("Invert singular: err = %v, want ErrSingular", err)
	}
}

func TestVandermondeSquareSubmatricesInvertible(t *testing.T) {
	// Any k consecutive... in fact any k distinct rows of a Vandermonde
	// matrix with distinct evaluation points are linearly independent.
	v := vandermonde(8, 5)
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		rows := rng.Perm(8)[:5]
		sub := NewMatrix(5, 5)
		for i, r := range rows {
			copy(sub.Row(i), v.Row(r))
		}
		if _, err := sub.Invert(); err != nil {
			t.Fatalf("Vandermonde 5-row subset %v singular", rows)
		}
	}
}

func TestSubMatrix(t *testing.T) {
	m := vandermonde(6, 6)
	s := m.SubMatrix(1, 4, 2, 5)
	if s.Rows != 3 || s.Cols != 3 {
		t.Fatalf("SubMatrix shape %dx%d", s.Rows, s.Cols)
	}
	for r := 0; r < 3; r++ {
		for c := 0; c < 3; c++ {
			if s.At(r, c) != m.At(r+1, c+2) {
				t.Fatalf("SubMatrix at (%d,%d)", r, c)
			}
		}
	}
}

func TestMatrixMulAssociative(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a, b, c := NewMatrix(4, 3), NewMatrix(3, 5), NewMatrix(5, 2)
	rng.Read(a.Data)
	rng.Read(b.Data)
	rng.Read(c.Data)
	left := a.Mul(b).Mul(c)
	right := a.Mul(b.Mul(c))
	for i := range left.Data {
		if left.Data[i] != right.Data[i] {
			t.Fatal("(AB)C != A(BC)")
		}
	}
}

package gf256

import (
	"errors"
	"fmt"
)

// Matrix is a dense matrix over GF(2^8), stored row-major.
type Matrix struct {
	Rows, Cols int
	Data       []byte // len == Rows*Cols
}

// NewMatrix returns a zero Rows×Cols matrix. It panics on non-positive
// shapes: every caller derives shapes from already-validated code
// parameters, so a bad shape is a corrupted-invariant bug, not an input
// error.
func NewMatrix(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		//lint:allow nakedpanic shapes derive from validated code parameters; a bad shape is a corrupted invariant
		panic(fmt.Sprintf("gf256: invalid matrix shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]byte, rows*cols)}
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// At returns element (r, c).
func (m *Matrix) At(r, c int) byte { return m.Data[r*m.Cols+c] }

// Set assigns element (r, c).
func (m *Matrix) Set(r, c int, v byte) { m.Data[r*m.Cols+c] = v }

// Row returns row r as a slice aliasing the matrix storage.
func (m *Matrix) Row(r int) []byte { return m.Data[r*m.Cols : (r+1)*m.Cols] }

// Mul returns the matrix product m·other. Mismatched inner dimensions
// panic: operand shapes derive from validated code parameters.
func (m *Matrix) Mul(other *Matrix) *Matrix {
	if m.Cols != other.Rows {
		//lint:allow nakedpanic shapes derive from validated code parameters; a mismatch is a corrupted invariant
		panic(fmt.Sprintf("gf256: matrix size mismatch %dx%d · %dx%d",
			m.Rows, m.Cols, other.Rows, other.Cols))
	}
	out := NewMatrix(m.Rows, other.Cols)
	for r := 0; r < m.Rows; r++ {
		mr := m.Row(r)
		or := out.Row(r)
		for k := 0; k < m.Cols; k++ {
			a := mr[k]
			if a == 0 {
				continue
			}
			mt := &mulTable[a]
			ok := other.Row(k)
			for c := range or {
				or[c] ^= mt[ok[c]]
			}
		}
	}
	return out
}

// SubMatrix returns the rectangle [r0, r1) × [c0, c1) as a new matrix.
func (m *Matrix) SubMatrix(r0, r1, c0, c1 int) *Matrix {
	out := NewMatrix(r1-r0, c1-c0)
	for r := r0; r < r1; r++ {
		copy(out.Row(r-r0), m.Row(r)[c0:c1])
	}
	return out
}

// ErrSingular is returned when a matrix inversion fails because the matrix
// is singular (which would indicate a non-MDS code construction).
var ErrSingular = errors.New("gf256: matrix is singular")

// Invert returns the inverse of a square matrix by reducing [m | I] to
// [I | m⁻¹]. It returns ErrSingular for singular matrices and a shape
// error for non-square ones.
func (m *Matrix) Invert() (*Matrix, error) {
	if m.Rows != m.Cols {
		return nil, fmt.Errorf("gf256: cannot invert non-square %dx%d matrix", m.Rows, m.Cols)
	}
	n := m.Rows
	aug := NewMatrix(n, 2*n)
	for r := 0; r < n; r++ {
		copy(aug.Row(r), m.Row(r))
		aug.Set(r, n+r, 1)
	}
	if !aug.reduce(n) {
		return nil, ErrSingular
	}
	return aug.SubMatrix(0, n, n, 2*n), nil
}

// reduce runs Gauss–Jordan elimination over the first cols columns of m
// in place: column c takes as pivot the first row at or below c with a
// nonzero entry there, which moves to row c, is scaled to a leading 1 and
// is cleared out of every other row. It reports false, leaving m partly
// reduced, when a column has no pivot (the columns are dependent).
func (m *Matrix) reduce(cols int) bool {
	for col := 0; col < cols; col++ {
		pivot := col
		for pivot < m.Rows && m.At(pivot, col) == 0 {
			pivot++
		}
		if pivot >= m.Rows {
			return false
		}
		for ; pivot > col; pivot-- { // one at a time: the rows passed over keep their order
			swapRows(m, pivot, pivot-1)
		}
		row := m.Row(col)
		inv := &mulTable[inverse[row[col]]]
		for i, b := range row {
			row[i] = inv[b]
		}
		for r := 0; r < m.Rows; r++ {
			if r != col {
				mulAdd(m.At(r, col), row, m.Row(r))
			}
		}
	}
	return true
}

func swapRows(m *Matrix, a, b int) {
	ra, rb := m.Row(a), m.Row(b)
	for i := range ra {
		ra[i], rb[i] = rb[i], ra[i]
	}
}

// vandermonde returns the rows×cols matrix with element (r, c) = g^(r·c),
// the seed of the systematic Reed–Solomon generator (ParityRows).
func vandermonde(rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			m.Set(r, c, Exp(r*c))
		}
	}
	return m
}

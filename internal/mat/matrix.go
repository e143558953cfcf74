package mat

import (
	"fmt"
	"math"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, element (i,j) at Data[i*Cols+j]
}

// NewMatrix returns a zero Rows×Cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("mat: negative dimensions %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromRows builds a matrix from a slice of equal-length rows.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return NewMatrix(0, 0)
	}
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic(fmt.Sprintf("mat: ragged rows: row %d has %d cols, want %d", i, len(r), m.Cols))
		}
		copy(m.Data[i*m.Cols:(i+1)*m.Cols], r)
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns row i as a vector sharing the matrix's backing storage.
func (m *Matrix) Row(i int) Vector { return Vector(m.Data[i*m.Cols : (i+1)*m.Cols]) }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// T returns the transpose of m as a new matrix.
func (m *Matrix) T() *Matrix {
	out := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Set(j, i, m.At(i, j))
		}
	}
	return out
}

// MulVec returns m·v as a new vector.
func (m *Matrix) MulVec(v Vector) Vector {
	if m.Cols != len(v) {
		panic(fmt.Sprintf("mat: MulVec dims %dx%d · %d", m.Rows, m.Cols, len(v)))
	}
	out := NewVector(m.Rows)
	for i := 0; i < m.Rows; i++ {
		out[i] = m.Row(i).Dot(v)
	}
	return out
}

// Mul returns m·b as a new matrix. The product is computed with the
// column-tiled kernel in MulTo; see there for the determinism contract.
func (m *Matrix) Mul(b *Matrix) *Matrix {
	if m.Cols != b.Rows {
		panic(fmt.Sprintf("mat: Mul dims %dx%d · %dx%d", m.Rows, m.Cols, b.Rows, b.Cols))
	}
	return m.MulTo(NewMatrix(m.Rows, b.Cols), b)
}

// AddScaledEye adds a*I to the square matrix m in place.
func (m *Matrix) AddScaledEye(a float64) {
	if m.Rows != m.Cols {
		panic(fmt.Sprintf("mat: AddScaledEye on %dx%d", m.Rows, m.Cols))
	}
	for i := 0; i < m.Rows; i++ {
		m.Data[i*m.Cols+i] += a
	}
}

// Add sets m = m + b in place and returns m.
func (m *Matrix) Add(b *Matrix) *Matrix {
	if m.Rows != b.Rows || m.Cols != b.Cols {
		panic(fmt.Sprintf("mat: Add dims %dx%d + %dx%d", m.Rows, m.Cols, b.Rows, b.Cols))
	}
	for i := range m.Data {
		m.Data[i] += b.Data[i]
	}
	return m
}

// SymmetricMaxAbsOffDiag returns the largest |m[i][j]-m[j][i]| of a square
// matrix — a cheap asymmetry diagnostic used by tests and the GP layer.
func (m *Matrix) SymmetricMaxAbsOffDiag() float64 {
	if m.Rows != m.Cols {
		panic("mat: SymmetricMaxAbsOffDiag on non-square matrix")
	}
	var worst float64
	for i := 0; i < m.Rows; i++ {
		for j := i + 1; j < m.Cols; j++ {
			d := math.Abs(m.At(i, j) - m.At(j, i))
			if d > worst {
				worst = d
			}
		}
	}
	return worst
}

// Symmetrize replaces m with (m + mᵀ)/2 in place.
func (m *Matrix) Symmetrize() {
	if m.Rows != m.Cols {
		panic("mat: Symmetrize on non-square matrix")
	}
	for i := 0; i < m.Rows; i++ {
		for j := i + 1; j < m.Cols; j++ {
			v := (m.At(i, j) + m.At(j, i)) / 2
			m.Set(i, j, v)
			m.Set(j, i, v)
		}
	}
}

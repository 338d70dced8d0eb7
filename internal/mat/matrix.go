// Package mat provides the small dense linear-algebra kernel used across
// ptile360: matrix arithmetic, linear solvers, ordinary and ridge least
// squares, and Levenberg–Marquardt nonlinear least squares.
//
// The package is intentionally minimal — it implements exactly what the
// viewport predictor (ridge regression), the QoE model fit (nonlinear least
// squares), and the power-model fit (ordinary least squares) need, with no
// external dependencies.
package mat

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a linear system has no unique solution.
var ErrSingular = errors.New("mat: matrix is singular or ill-conditioned")

// ErrShape is returned when operand dimensions are incompatible.
var ErrShape = errors.New("mat: incompatible matrix shapes")

// Matrix is a dense, row-major matrix of float64 values.
type Matrix struct {
	rows, cols int
	data       []float64
}

// New returns a zero-initialized rows×cols matrix.
// It panics if rows or cols is not positive, since a zero-dimension matrix is
// always a programming error in this codebase.
func New(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("mat: invalid dimensions %dx%d", rows, cols))
	}
	return &Matrix{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// FromRows builds a matrix from a slice of equal-length rows.
func FromRows(rows [][]float64) (*Matrix, error) {
	if len(rows) == 0 || len(rows[0]) == 0 {
		return nil, fmt.Errorf("%w: empty row set", ErrShape)
	}
	m := New(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.cols {
			return nil, fmt.Errorf("%w: row %d has %d columns, want %d", ErrShape, i, len(r), m.cols)
		}
		copy(m.data[i*m.cols:(i+1)*m.cols], r)
	}
	return m, nil
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// At returns the element at (i, j).
func (m *Matrix) At(i, j int) float64 { return m.data[i*m.cols+j] }

// Set assigns the element at (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.data[i*m.cols+j] = v }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := New(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// T returns the transpose of m as a new matrix.
func (m *Matrix) T() *Matrix {
	t := New(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			t.Set(j, i, m.At(i, j))
		}
	}
	return t
}

// Mul returns the matrix product m·b.
func (m *Matrix) Mul(b *Matrix) (*Matrix, error) {
	if m.cols != b.rows {
		return nil, fmt.Errorf("%w: %dx%d × %dx%d", ErrShape, m.rows, m.cols, b.rows, b.cols)
	}
	out := New(m.rows, b.cols)
	for i := 0; i < m.rows; i++ {
		for k := 0; k < m.cols; k++ {
			a := m.At(i, k)
			if a == 0 {
				continue
			}
			for j := 0; j < b.cols; j++ {
				out.data[i*out.cols+j] += a * b.At(k, j)
			}
		}
	}
	return out, nil
}

// MulVec returns the matrix-vector product m·x.
func (m *Matrix) MulVec(x []float64) ([]float64, error) {
	if m.cols != len(x) {
		return nil, fmt.Errorf("%w: %dx%d × vec(%d)", ErrShape, m.rows, m.cols, len(x))
	}
	out := make([]float64, m.rows)
	m.mulVecInto(out, x)
	return out, nil
}

// mulVecInto writes m·x into dst (len m.rows) without allocating.
func (m *Matrix) mulVecInto(dst, x []float64) {
	for i := 0; i < m.rows; i++ {
		var s float64
		row := m.data[i*m.cols : (i+1)*m.cols]
		for j, v := range row {
			s += v * x[j]
		}
		dst[i] = s
	}
}

// Add returns m + b.
func (m *Matrix) Add(b *Matrix) (*Matrix, error) {
	if m.rows != b.rows || m.cols != b.cols {
		return nil, fmt.Errorf("%w: %dx%d + %dx%d", ErrShape, m.rows, m.cols, b.rows, b.cols)
	}
	out := m.Clone()
	for i := range out.data {
		out.data[i] += b.data[i]
	}
	return out, nil
}

// Scale returns s·m as a new matrix.
func (m *Matrix) Scale(s float64) *Matrix {
	out := m.Clone()
	for i := range out.data {
		out.data[i] *= s
	}
	return out
}

// Solve solves the linear system a·x = b for x using Gaussian elimination with
// partial pivoting. a must be square; b is the right-hand-side vector.
func Solve(a *Matrix, b []float64) ([]float64, error) {
	n := a.rows
	if a.cols != n {
		return nil, fmt.Errorf("%w: coefficient matrix %dx%d is not square", ErrShape, a.rows, a.cols)
	}
	if len(b) != n {
		return nil, fmt.Errorf("%w: rhs has length %d, want %d", ErrShape, len(b), n)
	}
	// Work on augmented copies so callers keep their inputs.
	aug := a.Clone()
	rhs := make([]float64, n)
	copy(rhs, b)

	for col := 0; col < n; col++ {
		// Partial pivot: find the row with the largest magnitude in this column.
		pivot := col
		maxAbs := math.Abs(aug.At(col, col))
		for r := col + 1; r < n; r++ {
			if abs := math.Abs(aug.At(r, col)); abs > maxAbs {
				maxAbs, pivot = abs, r
			}
		}
		if maxAbs < 1e-12 {
			return nil, fmt.Errorf("%w: pivot %g at column %d", ErrSingular, maxAbs, col)
		}
		if pivot != col {
			swapRows(aug, pivot, col)
			rhs[pivot], rhs[col] = rhs[col], rhs[pivot]
		}
		inv := 1 / aug.At(col, col)
		for r := col + 1; r < n; r++ {
			f := aug.At(r, col) * inv
			if f == 0 {
				continue
			}
			for c := col; c < n; c++ {
				aug.Set(r, c, aug.At(r, c)-f*aug.At(col, c))
			}
			rhs[r] -= f * rhs[col]
		}
	}
	// Back substitution.
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := rhs[i]
		for j := i + 1; j < n; j++ {
			s -= aug.At(i, j) * x[j]
		}
		x[i] = s / aug.At(i, i)
	}
	return x, nil
}

func swapRows(m *Matrix, i, j int) {
	ri := m.data[i*m.cols : (i+1)*m.cols]
	rj := m.data[j*m.cols : (j+1)*m.cols]
	for k := range ri {
		ri[k], rj[k] = rj[k], ri[k]
	}
}

// Cholesky solves a·x = b for a symmetric positive-definite a. It is used for
// the ridge normal equations, which are SPD by construction.
func Cholesky(a *Matrix, b []float64) ([]float64, error) {
	n := a.rows
	if a.cols != n {
		return nil, fmt.Errorf("%w: matrix %dx%d is not square", ErrShape, a.rows, a.cols)
	}
	if len(b) != n {
		return nil, fmt.Errorf("%w: rhs has length %d, want %d", ErrShape, len(b), n)
	}
	l, err := choleskyFactor(a)
	if err != nil {
		return nil, err
	}
	x := make([]float64, n)
	choleskySolve(l, b, make([]float64, n), x)
	return x, nil
}

// choleskyFactor returns the lower-triangular factor L with a = L·Lᵀ of a
// square a, or ErrSingular when a is not positive definite.
func choleskyFactor(a *Matrix) (*Matrix, error) {
	n := a.rows
	l := New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			s := a.At(i, j)
			for k := 0; k < j; k++ {
				s -= l.At(i, k) * l.At(j, k)
			}
			if i == j {
				if s <= 0 {
					return nil, fmt.Errorf("%w: non-positive diagonal %g at %d", ErrSingular, s, i)
				}
				l.Set(i, i, math.Sqrt(s))
			} else {
				l.Set(i, j, s/l.At(j, j))
			}
		}
	}
	return l, nil
}

// choleskySolve solves L·Lᵀ·x = b for the factor l: forward substitution
// L·y = b into the scratch y, then back substitution Lᵀ·x = y into x.
func choleskySolve(l *Matrix, b, y, x []float64) {
	n := l.rows
	for i := 0; i < n; i++ {
		s := b[i]
		for k := 0; k < i; k++ {
			s -= l.At(i, k) * y[k]
		}
		y[i] = s / l.At(i, i)
	}
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < n; k++ {
			s -= l.At(k, i) * x[k]
		}
		x[i] = s / l.At(i, i)
	}
}

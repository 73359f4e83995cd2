// Package stats implements the numerical machinery the paper's modeling
// section relies on: ordinary least squares (via normal equations and via
// Householder QR), least-median-of-squares regression (Rousseeuw 1984, the
// paper's reference [24]), descriptive statistics, and empirical CDFs for
// the prediction-error figures.
//
// Everything is dependency-free dense linear algebra sized for the paper's
// problems (design matrices with 5 columns and a few hundred to a few
// thousand rows), favoring clarity and numerical robustness over asymptotic
// tricks.
package stats

import (
	"errors"
	"fmt"
	"math"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols
}

// NewMatrix allocates a zero Rows x Cols matrix. It panics on non-positive
// dimensions.
func NewMatrix(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("stats: NewMatrix(%d,%d): non-positive dimension", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// MatrixFromRows builds a matrix from row slices, which must be non-empty
// and of equal length.
func MatrixFromRows(rows [][]float64) (*Matrix, error) {
	if len(rows) == 0 {
		return nil, errors.New("stats: MatrixFromRows: no rows")
	}
	cols := len(rows[0])
	if cols == 0 {
		return nil, errors.New("stats: MatrixFromRows: empty row")
	}
	m := NewMatrix(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			return nil, fmt.Errorf("stats: MatrixFromRows: row %d has %d entries, want %d", i, len(r), cols)
		}
		copy(m.Data[i*cols:(i+1)*cols], r)
	}
	return m, nil
}

// At returns element (i,j).
func (m *Matrix) At(i, j int) float64 {
	m.check(i, j)
	return m.Data[i*m.Cols+j]
}

// SetAt assigns element (i,j).
func (m *Matrix) SetAt(i, j int, v float64) {
	m.check(i, j)
	m.Data[i*m.Cols+j] = v
}

func (m *Matrix) check(i, j int) {
	if i < 0 || i >= m.Rows || j < 0 || j >= m.Cols {
		panic(fmt.Sprintf("stats: index (%d,%d) out of %dx%d matrix", i, j, m.Rows, m.Cols))
	}
}

// Row returns a copy of row i.
func (m *Matrix) Row(i int) []float64 {
	if i < 0 || i >= m.Rows {
		panic(fmt.Sprintf("stats: row %d out of %d", i, m.Rows))
	}
	out := make([]float64, m.Cols)
	copy(out, m.Data[i*m.Cols:(i+1)*m.Cols])
	return out
}

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Transpose returns m^T.
func (m *Matrix) Transpose() *Matrix {
	t := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Data[j*t.Cols+i] = m.Data[i*m.Cols+j]
		}
	}
	return t
}

// Mul returns m*b. It returns an error on a dimension mismatch.
func (m *Matrix) Mul(b *Matrix) (*Matrix, error) {
	if m.Cols != b.Rows {
		return nil, fmt.Errorf("stats: Mul dimension mismatch %dx%d * %dx%d", m.Rows, m.Cols, b.Rows, b.Cols)
	}
	out := NewMatrix(m.Rows, b.Cols)
	for i := 0; i < m.Rows; i++ {
		for k := 0; k < m.Cols; k++ {
			a := m.Data[i*m.Cols+k]
			if a == 0 {
				continue
			}
			for j := 0; j < b.Cols; j++ {
				out.Data[i*out.Cols+j] += a * b.Data[k*b.Cols+j]
			}
		}
	}
	return out, nil
}

// MulVec returns m*x for a vector x (len == m.Cols).
func (m *Matrix) MulVec(x []float64) ([]float64, error) {
	if len(x) != m.Cols {
		return nil, fmt.Errorf("stats: MulVec length %d, want %d", len(x), m.Cols)
	}
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		var s float64
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, v := range row {
			s += v * x[j]
		}
		out[i] = s
	}
	return out, nil
}

// SolveLinear solves the square system A x = b using Gaussian elimination
// with partial pivoting. A and b are not modified. It returns an error when
// A is singular to working precision.
func SolveLinear(a *Matrix, b []float64) ([]float64, error) {
	n := a.Rows
	if a.Cols != n {
		return nil, fmt.Errorf("stats: SolveLinear needs a square matrix, got %dx%d", a.Rows, a.Cols)
	}
	if len(b) != n {
		return nil, fmt.Errorf("stats: SolveLinear rhs length %d, want %d", len(b), n)
	}
	// Augmented working copy.
	w := a.Clone()
	rhs := make([]float64, n)
	copy(rhs, b)
	x := make([]float64, n)
	if col := solveLinearInPlace(w, rhs, x); col >= 0 {
		return nil, fmt.Errorf("stats: SolveLinear: singular matrix at column %d", col)
	}
	return x, nil
}

// solveLinearInPlace is the allocation-free core of SolveLinear: it
// destroys a and b, writing the solution into x, and returns the column at
// which elimination found the matrix singular, or -1 on success. The
// caller guarantees a is square with len(b) == len(x) == a.Rows. Hot loops
// (the LMS trial kernel) call it on reused scratch; it allocates nothing
// on any path.
func solveLinearInPlace(a *Matrix, b []float64, x []float64) int {
	n := a.Rows
	w := a
	rhs := b
	for col := 0; col < n; col++ {
		// Partial pivot.
		pivot := col
		best := math.Abs(w.Data[col*n+col])
		for r := col + 1; r < n; r++ {
			if v := math.Abs(w.Data[r*n+col]); v > best {
				best, pivot = v, r
			}
		}
		if best < 1e-12 {
			return col
		}
		if pivot != col {
			for j := 0; j < n; j++ {
				w.Data[col*n+j], w.Data[pivot*n+j] = w.Data[pivot*n+j], w.Data[col*n+j]
			}
			rhs[col], rhs[pivot] = rhs[pivot], rhs[col]
		}
		pv := w.Data[col*n+col]
		for r := col + 1; r < n; r++ {
			f := w.Data[r*n+col] / pv
			if f == 0 {
				continue
			}
			w.Data[r*n+col] = 0
			for j := col + 1; j < n; j++ {
				w.Data[r*n+j] -= f * w.Data[col*n+j]
			}
			rhs[r] -= f * rhs[col]
		}
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		s := rhs[i]
		for j := i + 1; j < n; j++ {
			s -= w.Data[i*n+j] * x[j]
		}
		x[i] = s / w.Data[i*n+i]
	}
	return -1
}

// qrSolve solves the least-squares problem min ||A x - b||_2 using
// Householder QR with column checks. A must have Rows >= Cols. It is
// factor then solve on a copy of A, so A is not modified.
func qrSolve(a *Matrix, b []float64) ([]float64, error) {
	m, n := a.Rows, a.Cols
	if m < n {
		return nil, fmt.Errorf("stats: qrSolve: underdetermined system %dx%d", m, n)
	}
	if len(b) != m {
		return nil, fmt.Errorf("stats: qrSolve rhs length %d, want %d", len(b), m)
	}
	var q qrFactor
	if err := q.factor(a.Clone()); err != nil {
		return nil, err
	}
	x := make([]float64, n)
	q.solve(b, x)
	return x, nil
}

// qrFactor is a Householder QR factorisation of a least-squares design,
// kept so that any number of right-hand sides can be solved against one
// design. A reflector depends on the design alone, so applying the kept
// reflectors to b repeats, operation for operation, what a one-pass
// Householder solve does to b beside the design: each solution is
// bit-identical to factoring the design afresh for that b. Reflector k
// is column k of the design from the diagonal down, with only its head
// changed; the factor leaves that column's tail in place as the
// reflector's storage (R needs only the upper triangle) and keeps the
// head apart. The buffers are reused across factor calls, so a caller
// that keeps one qrFactor allocates on first use only.
type qrFactor struct {
	r      *Matrix   // R in the upper triangle, reflector tails below it
	v0     []float64 // head of reflector k
	vnorm2 []float64 // ||v_k||²; 0 marks a reflector the factor skipped
	y      []float64 // solve scratch, Rows entries
}

// factor factors a in place; a must have Rows >= Cols and stays owned by
// q until the next factor call. It fails on a design that qrSolve
// rejects as rank deficient.
func (q *qrFactor) factor(a *Matrix) error {
	m, n := a.Rows, a.Cols
	q.r = a
	q.v0 = growFloats(q.v0, n)
	q.vnorm2 = growFloats(q.vnorm2, n)
	r := a
	for k := 0; k < n; k++ {
		// Householder vector for column k below the diagonal.
		var norm float64
		for i := k; i < m; i++ {
			norm += r.Data[i*n+k] * r.Data[i*n+k]
		}
		norm = math.Sqrt(norm)
		if norm < 1e-12 {
			return fmt.Errorf("stats: qrSolve: rank-deficient at column %d", k)
		}
		if r.Data[k*n+k] > 0 {
			norm = -norm
		}
		// Sums start from +0 as a loop over the whole reflector would, so
		// an all-zero sum keeps that sign of zero.
		v0 := r.Data[k*n+k] - norm
		var vnorm2 float64
		vnorm2 += v0 * v0
		for i := k + 1; i < m; i++ {
			vnorm2 += r.Data[i*n+k] * r.Data[i*n+k]
		}
		q.v0[k] = v0
		if vnorm2 < 1e-24 {
			q.vnorm2[k] = 0
			continue
		}
		q.vnorm2[k] = vnorm2
		// Apply H = I - 2 v v^T / (v^T v) to R's trailing columns. Column
		// k below the diagonal keeps the reflector's tail, not H's zeros.
		for j := k; j < n; j++ {
			var dot float64
			dot += v0 * r.Data[k*n+j]
			for i := k + 1; i < m; i++ {
				dot += r.Data[i*n+k] * r.Data[i*n+j]
			}
			f := 2 * dot / vnorm2
			r.Data[k*n+j] -= f * v0
			if j == k {
				continue
			}
			for i := k + 1; i < m; i++ {
				r.Data[i*n+j] -= f * r.Data[i*n+k]
			}
		}
	}
	for i := n - 1; i >= 0; i-- {
		if math.Abs(r.Data[i*n+i]) < 1e-12 {
			return fmt.Errorf("stats: qrSolve: zero pivot at %d", i)
		}
	}
	return nil
}

// solve writes the least-squares solution for right-hand side b
// (len Rows) into x (len Cols): it applies the stored reflectors to a
// copy of b in factor order, then back-substitutes on R.
func (q *qrFactor) solve(b, x []float64) {
	m, n := q.r.Rows, q.r.Cols
	q.y = growFloats(q.y, m)
	y := q.y
	copy(y, b)
	r := q.r
	for k := 0; k < n; k++ {
		vnorm2 := q.vnorm2[k]
		if vnorm2 == 0 {
			continue
		}
		v0 := q.v0[k]
		var dot float64
		dot += v0 * y[k]
		for i := k + 1; i < m; i++ {
			dot += r.Data[i*n+k] * y[i]
		}
		f := 2 * dot / vnorm2
		y[k] -= f * v0
		// Rows below the last reflector's diagonal feed no later
		// reflector and no unknown.
		if k == n-1 {
			break
		}
		for i := k + 1; i < m; i++ {
			y[i] -= f * r.Data[i*n+k]
		}
	}
	// Back substitution on the upper-triangular leading n x n block.
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for j := i + 1; j < n; j++ {
			s -= r.Data[i*n+j] * x[j]
		}
		x[i] = s / r.Data[i*n+i]
	}
}

// growFloats returns buf resliced to n entries, reallocating only when
// its capacity is short.
func growFloats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

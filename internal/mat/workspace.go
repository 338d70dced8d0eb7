package mat

import "fmt"

// RidgeWorkspace is RidgeLeastSquaresPenalized prepared for one fixed design
// A and penalty vector P. Everything that depends only on them — Aᵀ,
// AᵀA + P and its Cholesky factor — is computed once at construction, so a
// solve costs only Aᵀy and two triangular substitutions and allocates
// nothing. Construction and solves run the allocating path's own functions
// (T, Mul, the Cholesky factorization and substitutions) on the same
// operands, so the solutions are bit-identical to
// RidgeLeastSquaresPenalized(A, y, P).
//
// A workspace is not safe for concurrent use, and the slice returned by
// Solve aliases the workspace: callers must consume (or copy) it before the
// next Solve call.
type RidgeWorkspace struct {
	at  *Matrix // cols×rows transpose of the design
	ata *Matrix // AᵀA + P
	// l is the Cholesky factor of ata, or nil when the factorization failed;
	// solves then take the pivoted fallback, as the allocating path does.
	l       *Matrix
	aty     []float64
	scratch []float64
	x       []float64
}

// NewRidgeWorkspace prepares ridge solves for design a (one row per
// observation) with one non-negative penalty per coefficient. The workspace
// keeps no reference to a or penalties.
func NewRidgeWorkspace(a *Matrix, penalties []float64) (*RidgeWorkspace, error) {
	if len(penalties) != a.cols {
		return nil, fmt.Errorf("%w: %d penalties for %d coefficients", ErrShape, len(penalties), a.cols)
	}
	for j, p := range penalties {
		if p < 0 {
			return nil, fmt.Errorf("mat: negative ridge penalty %g for coefficient %d", p, j)
		}
	}
	at := a.T()
	ata, err := at.Mul(a)
	if err != nil {
		return nil, err
	}
	for i := 0; i < ata.rows; i++ {
		ata.Set(i, i, ata.At(i, i)+penalties[i])
	}
	// A failed factorization leaves l nil and routes solves to the fallback.
	l, _ := choleskyFactor(ata)
	return &RidgeWorkspace{
		at:      at,
		ata:     ata,
		l:       l,
		aty:     make([]float64, a.cols),
		scratch: make([]float64, a.cols),
		x:       make([]float64, a.cols),
	}, nil
}

// Solve returns RidgeLeastSquaresPenalized(a, y, penalties) for the design
// and penalties the workspace was prepared with. The returned slice is owned
// by the workspace and overwritten by the next call.
func (w *RidgeWorkspace) Solve(y []float64) ([]float64, error) {
	if len(y) != w.at.cols {
		return nil, fmt.Errorf("%w: design %dx%d vs %d observations", ErrShape, w.at.cols, w.at.rows, len(y))
	}
	w.at.mulVecInto(w.aty, y)
	if w.l == nil {
		// The normal matrix lost definiteness: the same pivoted-solver
		// fallback as the allocating path.
		return Solve(w.ata, w.aty)
	}
	choleskySolve(w.l, w.aty, w.scratch, w.x)
	return w.x, nil
}

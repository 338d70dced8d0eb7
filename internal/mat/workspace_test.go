package mat

import (
	"math"
	"testing"
)

// lcg returns a deterministic uniform [0, 1) source.
func lcg(seed uint64) func() float64 {
	state := seed
	return func() float64 {
		state = state*6364136223846793005 + 1442695040888963407
		return float64(state>>11) / float64(1<<53)
	}
}

// requireSameBits fails unless got and want agree on every coefficient's
// Float64bits.
func requireSameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d coefficients, want %d", what, len(got), len(want))
	}
	for j := range got {
		if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
			t.Fatalf("%s coef %d: workspace %v, reference %v", what, j, got[j], want[j])
		}
	}
}

// TestRidgeWorkspaceBitIdentical pins the prepared solver bit-for-bit
// against RidgeLeastSquaresPenalized across random designs, penalties, and
// repeated solves on one workspace.
func TestRidgeWorkspaceBitIdentical(t *testing.T) {
	next := lcg(77)
	for _, dims := range [][2]int{{50, 2}, {12, 3}, {5, 5}} {
		rows, cols := dims[0], dims[1]
		for trial := 0; trial < 20; trial++ {
			a := New(rows, cols)
			for i := 0; i < rows; i++ {
				a.Set(i, 0, 1)
				for j := 1; j < cols; j++ {
					a.Set(i, j, (next()-0.5)*10)
				}
			}
			penalties := make([]float64, cols)
			for j := 1; j < cols; j++ {
				penalties[j] = next() * 2
			}
			w, err := NewRidgeWorkspace(a, penalties)
			if err != nil {
				t.Fatal(err)
			}
			for solve := 0; solve < 3; solve++ {
				y := make([]float64, rows)
				for i := range y {
					y[i] = (next() - 0.5) * 100
				}
				want, err := RidgeLeastSquaresPenalized(a, y, penalties)
				if err != nil {
					t.Fatal(err)
				}
				got, err := w.Solve(y)
				if err != nil {
					t.Fatal(err)
				}
				requireSameBits(t, "random design", got, want)
			}
		}
	}
}

// TestRidgeWorkspaceViewportDesigns covers the designs the viewport
// predictor prepares — [1, tᵢ] for every window length n = 2…50 at 50 Hz —
// with random observations, for a penalized slope and for plain least
// squares.
func TestRidgeWorkspaceViewportDesigns(t *testing.T) {
	next := lcg(2024)
	const dt = 1.0 / 50
	for n := 2; n <= 50; n++ {
		a := New(n, 2)
		for i := 0; i < n; i++ {
			a.Set(i, 0, 1)
			a.Set(i, 1, float64(i-(n-1))*dt)
		}
		for _, lambda := range []float64{1, 0} {
			penalties := []float64{0, lambda}
			w, err := NewRidgeWorkspace(a, penalties)
			if err != nil {
				t.Fatal(err)
			}
			for trial := 0; trial < 8; trial++ {
				y := make([]float64, n)
				for i := range y {
					y[i] = next()*360 - 90
				}
				want, err := RidgeLeastSquaresPenalized(a, y, penalties)
				if err != nil {
					t.Fatal(err)
				}
				got, err := w.Solve(y)
				if err != nil {
					t.Fatal(err)
				}
				requireSameBits(t, "viewport design", got, want)
			}
		}
	}
}

// TestRidgeWorkspaceDegenerateFallback checks rank-deficient designs get
// the allocating path's outcome: a normal matrix whose factorization fails
// takes the same pivoted-solver fallback, which either solves (nearly
// collinear columns, where rounding breaks definiteness) or reports the
// singularity (a zero column).
func TestRidgeWorkspaceDegenerateFallback(t *testing.T) {
	design := func(rows, cols int, at func(i, j int) float64) *Matrix {
		m := New(rows, cols)
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				m.Set(i, j, at(i, j))
			}
		}
		return m
	}
	for _, c := range []struct {
		name     string
		a        *Matrix
		fallback bool // factorization fails
		solves   bool // the reference returns a solution
	}{
		{"nearly collinear columns", design(3, 2, func(i, j int) float64 {
			return float64(i+1) * 1e3 * (1 + float64(j)*2e-15)
		}), true, true},
		{"zero column", design(6, 2, func(i, j int) float64 {
			return float64(1-j) * float64(i+1)
		}), true, false},
		{"identical columns", design(10, 2, func(i, j int) float64 { return 1 }), false, true},
	} {
		rows := c.a.Rows()
		y := make([]float64, rows)
		for i := range y {
			y[i] = float64(i)
		}
		penalties := make([]float64, c.a.Cols())
		w, err := NewRidgeWorkspace(c.a, penalties)
		if err != nil {
			t.Fatal(err)
		}
		if (w.l == nil) != c.fallback {
			t.Fatalf("%s: factorization failed = %v, want %v", c.name, w.l == nil, c.fallback)
		}
		want, wantErr := RidgeLeastSquaresPenalized(c.a, y, penalties)
		if (wantErr == nil) != c.solves {
			t.Fatalf("%s: reference error %v, want solved = %v", c.name, wantErr, c.solves)
		}
		got, gotErr := w.Solve(y)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("%s: error mismatch: workspace %v, reference %v", c.name, gotErr, wantErr)
		}
		if wantErr == nil {
			requireSameBits(t, c.name, got, want)
		}
	}
}

// TestRidgeWorkspaceShapeErrors checks the workspace rejects mismatched
// inputs rather than corrupting its buffers.
func TestRidgeWorkspaceShapeErrors(t *testing.T) {
	a := New(4, 2)
	if _, err := NewRidgeWorkspace(a, []float64{0}); err == nil {
		t.Fatal("short penalty vector accepted")
	}
	if _, err := NewRidgeWorkspace(a, []float64{0, -1}); err == nil {
		t.Fatal("negative penalty accepted")
	}
	w, err := NewRidgeWorkspace(a, []float64{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Solve(make([]float64, 3)); err == nil {
		t.Fatal("short observation vector accepted")
	}
	if _, err := w.Solve(make([]float64, 5)); err == nil {
		t.Fatal("long observation vector accepted")
	}
}

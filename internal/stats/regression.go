package stats

import (
	"fmt"
	"math"
)

// OLSFit is the result of an ordinary-least-squares regression.
type OLSFit struct {
	Coefficients []float64
	StdErrors    []float64
	Residuals    []float64
	RSS          float64 // residual sum of squares
	R2           float64
}

// OLS fits y = X·β by ordinary least squares via the normal equations,
// solved with partially pivoted Gaussian elimination. X is row-major
// with one row per observation (include a column of ones for an
// intercept). Standard errors come from σ²·(XᵀX)⁻¹ with
// σ² = RSS/(n-k).
//
// It is used by the ADF stationarity test and by the token-bucket
// parameter-inference fits of Figure 11.
func OLS(X [][]float64, y []float64) (OLSFit, error) {
	n := len(X)
	if n == 0 || n != len(y) {
		return OLSFit{}, fmt.Errorf("stats: OLS needs matching non-empty X (%d rows) and y (%d)", n, len(y))
	}
	k := len(X[0])
	if k == 0 {
		return OLSFit{}, fmt.Errorf("stats: OLS needs at least one regressor")
	}
	if n <= k {
		return OLSFit{}, fmt.Errorf("stats: OLS needs n > k (n=%d, k=%d): %w", n, k, ErrInsufficientData)
	}
	for i, row := range X {
		if len(row) != k {
			return OLSFit{}, fmt.Errorf("stats: OLS row %d has %d columns, want %d", i, len(row), k)
		}
	}

	// Normal equations: A = XᵀX (k×k), b = Xᵀy.
	A := make([][]float64, k)
	for i := range A {
		A[i] = make([]float64, k)
	}
	b := make([]float64, k)
	for r := 0; r < n; r++ {
		for i := 0; i < k; i++ {
			xi := X[r][i]
			b[i] += xi * y[r]
			for j := i; j < k; j++ {
				A[i][j] += xi * X[r][j]
			}
		}
	}
	for i := 0; i < k; i++ {
		for j := 0; j < i; j++ {
			A[i][j] = A[j][i]
		}
	}

	inv, err := invertMatrix(A)
	if err != nil {
		return OLSFit{}, fmt.Errorf("stats: OLS normal equations singular: %w", err)
	}

	beta := make([]float64, k)
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			beta[i] += inv[i][j] * b[j]
		}
	}

	fit := OLSFit{Coefficients: beta}
	fit.Residuals = make([]float64, n)
	meanY := Mean(y)
	tss := 0.0
	for r := 0; r < n; r++ {
		pred := 0.0
		for i := 0; i < k; i++ {
			pred += X[r][i] * beta[i]
		}
		fit.Residuals[r] = y[r] - pred
		fit.RSS += fit.Residuals[r] * fit.Residuals[r]
		d := y[r] - meanY
		tss += d * d
	}
	if tss > 0 {
		fit.R2 = 1 - fit.RSS/tss
	}

	sigma2 := fit.RSS / float64(n-k)
	fit.StdErrors = make([]float64, k)
	for i := 0; i < k; i++ {
		fit.StdErrors[i] = math.Sqrt(sigma2 * inv[i][i])
	}
	return fit, nil
}

// invertMatrix inverts a square matrix by Gauss-Jordan elimination
// with partial pivoting. It destroys its input.
func invertMatrix(a [][]float64) ([][]float64, error) {
	n := len(a)
	inv := make([][]float64, n)
	for i := range inv {
		inv[i] = make([]float64, n)
		inv[i][i] = 1
	}
	for col := 0; col < n; col++ {
		// Partial pivot.
		pivot := col
		for r := col + 1; r < n; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(a[pivot][col]) < 1e-12 {
			return nil, fmt.Errorf("matrix singular at column %d", col)
		}
		a[col], a[pivot] = a[pivot], a[col]
		inv[col], inv[pivot] = inv[pivot], inv[col]

		p := a[col][col]
		for j := 0; j < n; j++ {
			a[col][j] /= p
			inv[col][j] /= p
		}
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := a[r][col]
			if f == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				a[r][j] -= f * a[col][j]
				inv[r][j] -= f * inv[col][j]
			}
		}
	}
	return inv, nil
}

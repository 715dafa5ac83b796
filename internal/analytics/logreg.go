package analytics

import (
	"fmt"
	"math"
	"sync"

	"gupt/internal/mathutil"
)

// LogisticRegression trains an L2-regularized (optionally L1 via a proximal
// step) binary classifier with batch gradient descent. Records are the
// first FeatureDims columns; the label, in LabelCol, must be 0 or 1
// (values are thresholded at 0.5). The output is the weight vector followed
// by the bias: FeatureDims+1 values.
//
// It stands in for the paper's black-box MSR OWL-QN package: GUPT only ever
// calls Run on a block and averages the resulting parameter vectors.
type LogisticRegression struct {
	FeatureDims int
	LabelCol    int
	Iters       int
	LearnRate   float64
	L2          float64
	L1          float64 // 0 disables the proximal step
}

// Name implements Program.
func (l LogisticRegression) Name() string {
	return fmt.Sprintf("logreg(d=%d,iters=%d)", l.FeatureDims, l.Iters)
}

// OutputDims implements Program.
func (l LogisticRegression) OutputDims() int { return l.FeatureDims + 1 }

// Run implements Program.
//
// The block is copied once into pooled column-major scratch (logregCols), the
// features followed by a column of ones whose weight is the bias, and each
// gradient pass then runs as three sweeps over it:
//
//   - dots: for every row, u = Σ_j w_j·x_j + b, summed from +0 in column
//     order (b·1 is b, so this is the dot product plus b);
//   - sigmoidErrs: err = Sigmoid(u) − label, with e^−|u| for the whole block
//     taken by one mathutil.ExpInto call;
//   - grads: for every column, grad_j = Σ_i err_i·x_ij from +0 in row order;
//     the ones column's sum is the bias gradient.
//
// Each sum adds the same terms in the same order as the one-row loop, and
// ExpInto is math.Exp bit for bit, so the released bits are that loop's
// (TestKernelsMatchReference, FuzzLogRegMatchesReference). Where ExpInto's
// four-lane path runs, so do the sweeps' (logreg_amd64.s), each lane
// repeating the Go loop's operations in its order; elsewhere the Go loops
// run. The block is only read.
func (l LogisticRegression) Run(block []mathutil.Vec) (mathutil.Vec, error) {
	if len(block) == 0 {
		return nil, ErrEmptyBlock
	}
	if l.FeatureDims <= 0 || l.Iters <= 0 || l.LearnRate <= 0 {
		return nil, fmt.Errorf("analytics: logreg needs positive FeatureDims, Iters, LearnRate; got %+v", l)
	}
	if len(block[0]) <= l.LabelCol || len(block[0]) < l.FeatureDims {
		return nil, fmt.Errorf("analytics: rows have %d dims, logreg needs features %d and label col %d",
			len(block[0]), l.FeatureDims, l.LabelCol)
	}

	f, n := l.FeatureDims, len(block)
	buf := logregPool.Get().(*[]float64)
	defer func() {
		if 8*cap(*buf) <= maxPooledBytes {
			logregPool.Put(buf)
		}
	}()
	// The scratch is cols, then y, u and e (n each), then grad with room for
	// whole groups of four columns. Every cell is written before it is read.
	*buf = grow(*buf, (f+4)*n+(f+4)/4*4)
	c := loadCols((*buf)[:(f+1)*n], block, f)
	rest := (*buf)[(f+1)*n:]
	y, u, e, grad := rest[:n:n], rest[n:2*n:2*n], rest[2*n:3*n:3*n], rest[3*n:]
	for i, row := range block {
		y[i] = label(row[l.LabelCol])
	}

	w := make(mathutil.Vec, f+1) // the weights, then the bias
	nf := float64(n)
	for iter := 0; iter < l.Iters; iter++ {
		c.dots(u, w)
		sigmoidErrs(u, e, y)
		c.grads(grad, u)
		for j := range w[:f] {
			w[j] -= l.LearnRate * (grad[j]/nf + l.L2*w[j])
			if l.L1 > 0 {
				w[j] = softThreshold(w[j], l.LearnRate*l.L1)
			}
		}
		w[f] -= l.LearnRate * grad[f] / nf
	}
	return w, nil
}

// logregPool holds logistic regression's scratch; it grows to the largest
// block it has served, up to maxPooledBytes.
var logregPool = sync.Pool{New: func() any { return new([]float64) }}

// useVectorSweeps runs the three sweeps as four-lane AVX kernels. It is
// ExpInto's gate: one CPU and GODEBUG decision for every vector kernel.
var useVectorSweeps = mathutil.VectorKernels()

// logregCols is a block of n rows laid out for the sweeps: feature column j
// at cells[j·n, (j+1)·n) for j < f, then a column of ones.
type logregCols struct {
	cells []float64
	n, f  int
}

// loadCols lays out the first f columns of block in cells, which must hold
// (f+1)·len(block) values.
func loadCols(cells []float64, block []mathutil.Vec, f int) logregCols {
	n := len(block)
	for i, row := range block {
		for j, x := range row[:f] {
			cells[j*n+i] = x
		}
		cells[f*n+i] = 1
	}
	return logregCols{cells: cells, n: n, f: f}
}

// col returns column j; past the ones column it returns the ones column
// again, which pads the last group of four in grads.
func (c logregCols) col(j int) []float64 {
	j = min(j, c.f)
	return c.cells[j*c.n : (j+1)*c.n]
}

// dots sets u_i = Σ_j w_j·x_ij for every row i, each sum from +0 in column
// order. The AVX kernel takes the rows in groups of four, one row a lane,
// and the last len(u) mod 4 rows are summed here.
func (c logregCols) dots(u, w []float64) {
	if !useVectorSweeps {
		c.dotsLoop(u, w)
		return
	}
	dotsAVX(u, w, c.cells, c.n)
	for i := len(u) &^ 3; i < len(u); i++ {
		var ui float64
		for j, wj := range w {
			ui += wj * c.col(j)[i]
		}
		u[i] = ui
	}
}

// dotsLoop is dots in Go. A pass over u takes four columns: the four terms
// are added to u_i one after another, so every sum is still one chain in
// column order.
func (c logregCols) dotsLoop(u, w []float64) {
	clear(u)
	j := 0
	for ; j+4 <= len(w); j += 4 {
		w0, w1, w2, w3 := w[j], w[j+1], w[j+2], w[j+3]
		x0, x1, x2, x3 := c.col(j)[:len(u)], c.col(j + 1)[:len(u)], c.col(j + 2)[:len(u)], c.col(j + 3)[:len(u)]
		for i := range u {
			u[i] = u[i] + w0*x0[i] + w1*x1[i] + w2*x2[i] + w3*x3[i]
		}
	}
	for ; j < len(w); j++ {
		wj, x := w[j], c.col(j)[:len(u)]
		for i := range u {
			u[i] += wj * x[i]
		}
	}
}

// grads sets grad_j = Σ_i err_i·x_ij for every column j, the ones column
// included, each sum from +0 in row order. grad is padded to a multiple of
// four; past the ones column, col repeats it.
//
// The AVX kernel reads the same column-major cells, one column a lane, and
// takes up to twelve columns per pass over err, two rows at a time; an odd
// last row is added here, after the kernel has stored each sum, so every sum
// keeps its row order.
func (c logregCols) grads(grad, err []float64) {
	n := len(err)
	if !useVectorSweeps || n < 2 {
		c.gradsLoop(grad, err)
		return
	}
	for j := 0; j <= c.f; j += 12 {
		groups := min(3, (c.f-j)/4+1)
		last := j + 4*(groups-1) // the first column of the chunk's last group
		pad := func(k int) int { return (min(last+k, c.f) - last) * c.n * 8 }
		gradsAVX(&grad[j], &c.cells[j*c.n], &err[0], n/2, c.n*8, groups, pad(1), pad(2), pad(3))
	}
	if n%2 == 1 {
		e := err[n-1]
		for j := range grad[:(c.f+4)/4*4] {
			grad[j] += e * c.col(j)[n-1]
		}
	}
}

// gradsLoop is grads in Go: four columns per pass over err, four
// independent sums.
func (c logregCols) gradsLoop(grad, err []float64) {
	for j := 0; j <= c.f; j += 4 {
		x0, x1, x2, x3 := c.col(j)[:len(err)], c.col(j + 1)[:len(err)], c.col(j + 2)[:len(err)], c.col(j + 3)[:len(err)]
		var g0, g1, g2, g3 float64
		for i, e := range err {
			g0 += e * x0[i]
			g1 += e * x1[i]
			g2 += e * x2[i]
			g3 += e * x3[i]
		}
		grad[j], grad[j+1], grad[j+2], grad[j+3] = g0, g1, g2, g3
	}
}

// sigmoidErrs replaces each u_i by Sigmoid(u_i) − y_i, with e (as long as u)
// as scratch for e^−|u_i|. The AVX kernels take the rows before and after
// ExpInto in groups of four, one row a lane, and the last len(u) mod 4 rows
// go through the same steps here.
func sigmoidErrs(u, e, y []float64) {
	if !useVectorSweeps {
		sigmoidErrsLoop(u, e, y)
		return
	}
	e, y = e[:len(u)], y[:len(u)]
	tail := len(u) &^ 3
	negAbsAVX(e, u)
	for i := tail; i < len(u); i++ {
		e[i] = -math.Abs(u[i])
	}
	mathutil.ExpInto(e, e)
	logisticErrsAVX(u, e, y)
	for i := tail; i < len(u); i++ {
		u[i] = logistic(u[i], e[i]) - y[i]
	}
}

// sigmoidErrsLoop is sigmoidErrs in Go.
func sigmoidErrsLoop(u, e, y []float64) {
	e, y = e[:len(u)], y[:len(u)]
	for i, ui := range u {
		e[i] = -math.Abs(ui)
	}
	mathutil.ExpInto(e, e)
	for i, ui := range u {
		u[i] = logistic(ui, e[i]) - y[i]
	}
}

// label thresholds a label cell at 0.5 into the class 0 or 1.
func label(v float64) float64 {
	if v >= 0.5 {
		return 1
	}
	return 0
}

// Sigmoid is the logistic function 1/(1+e^-z), computed stably: with
// e = e^−|z|, as 1/(1+e) for z ≥ 0 and e/(1+e) for z < 0.
func Sigmoid(z float64) float64 {
	return logistic(z, math.Exp(-math.Abs(z)))
}

// logistic is Sigmoid(z) given e = e^−|z|. z's sign bit picks the numerator,
// e or 1, without a branch: from row to row of a block the sign is a coin
// flip. The sign bit and z < 0 disagree only at −0, where e is 1, and at
// NaN, where the result is NaN either way.
func logistic(z, e float64) float64 {
	neg := uint64(int64(math.Float64bits(z)) >> 63)
	one := math.Float64bits(1)
	num := math.Float64frombits(one ^ (one^math.Float64bits(e))&neg)
	return num / (1 + e)
}

func softThreshold(x, t float64) float64 {
	switch {
	case x > t:
		return x - t
	case x < -t:
		return x + t
	default:
		return 0
	}
}

// PredictLogistic classifies a feature vector with a trained parameter
// vector (weights followed by bias), returning 0 or 1.
func PredictLogistic(params mathutil.Vec, x mathutil.Vec) float64 {
	w, b := params[:len(params)-1], params[len(params)-1]
	if Sigmoid(mathutil.Vec(w).Dot(x)+b) >= 0.5 {
		return 1
	}
	return 0
}

// ClassificationAccuracy evaluates a trained parameter vector on labeled
// rows (features in the first featureDims columns, label in labelCol),
// returning the fraction of correct predictions.
func ClassificationAccuracy(params mathutil.Vec, rows []mathutil.Vec, featureDims, labelCol int) float64 {
	if len(rows) == 0 {
		return 0
	}
	correct := 0
	for _, r := range rows {
		if PredictLogistic(params, r[:featureDims]) == label(r[labelCol]) {
			correct++
		}
	}
	return float64(correct) / float64(len(rows))
}

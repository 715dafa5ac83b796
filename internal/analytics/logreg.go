package analytics

import (
	"fmt"
	"math"

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
// Each gradient pass takes two rows at a time: their dot products run as
// two independent chains, each in index order like Vec.Dot, and grad and
// gradB take row i's term before row i+1's, so the released bits are the
// one-row loop's (TestKernelsMatchReference).
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

	f := l.FeatureDims
	w := make(mathutil.Vec, f, f+1) // the bias is appended in place
	var b float64
	n := float64(len(block))
	grad := make([]float64, f)

	for iter := 0; iter < l.Iters; iter++ {
		clear(grad)
		var gradB float64
		i := 0
		for ; i+1 < len(block); i += 2 {
			x0, x1 := block[i][:f], block[i+1][:f]
			var dot0, dot1 float64
			for j, wj := range w {
				dot0 += wj * x0[j]
				dot1 += wj * x1[j]
			}
			err0 := Sigmoid(dot0+b) - label(block[i][l.LabelCol])
			err1 := Sigmoid(dot1+b) - label(block[i+1][l.LabelCol])
			for j := range grad {
				grad[j] = grad[j] + err0*x0[j] + err1*x1[j]
			}
			gradB = gradB + err0 + err1
		}
		if i < len(block) {
			x := block[i][:f]
			var dot float64
			for j, wj := range w {
				dot += wj * x[j]
			}
			err := Sigmoid(dot+b) - label(block[i][l.LabelCol])
			for j := range grad {
				grad[j] += err * x[j]
			}
			gradB += err
		}
		for j := range w {
			w[j] -= l.LearnRate * (grad[j]/n + l.L2*w[j])
			if l.L1 > 0 {
				w[j] = softThreshold(w[j], l.LearnRate*l.L1)
			}
		}
		b -= l.LearnRate * gradB / n
	}
	return append(w, b), nil
}

// label thresholds a label cell at 0.5 into the class 0 or 1.
func label(v float64) float64 {
	if v >= 0.5 {
		return 1
	}
	return 0
}

// Sigmoid is the logistic function 1/(1+e^-z), computed stably.
func Sigmoid(z float64) float64 {
	if z >= 0 {
		return 1 / (1 + math.Exp(-z))
	}
	e := math.Exp(z)
	return e / (1 + e)
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

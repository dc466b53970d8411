package core

import (
	"graphsys/internal/nn"
	"graphsys/internal/tensor"
)

// Shallow (non-graph) downstream models: the paper notes graph
// classification/regression were conventionally solved by shallow learning
// (SVMs, boosting) over extracted features — logistic regression closes the
// "+ML" paths of Figure 1 when a GNN is not wanted.

// LogisticRegression is a multinomial logistic-regression classifier.
type LogisticRegression struct {
	lin     *nn.Dense
	classes int
}

// TrainLogReg trains multinomial logistic regression on rows of x with
// integer labels (label < 0 rows are ignored).
func TrainLogReg(x *tensor.Matrix, labels []int, epochs int, lr float64, seed int64) *LogisticRegression {
	classes := 0
	for _, l := range labels {
		if l+1 > classes {
			classes = l + 1
		}
	}
	m := &LogisticRegression{lin: nn.NewDense(x.Cols, classes, seed), classes: classes}
	opt := nn.NewAdam(lr)
	for ep := 0; ep < epochs; ep++ {
		logits := m.lin.Forward(x)
		_, grad := nn.SoftmaxCrossEntropy(logits, labels)
		m.lin.Backward(grad)
		opt.Step(m.lin.Params())
	}
	return m
}

// Predict returns the class logits for rows of x.
func (m *LogisticRegression) Predict(x *tensor.Matrix) *tensor.Matrix {
	return m.lin.Forward(x)
}

// Accuracy evaluates the classifier on rows with mask true (nil = all).
func (m *LogisticRegression) Accuracy(x *tensor.Matrix, labels []int, mask []bool) float64 {
	return nn.Accuracy(m.Predict(x), labels, mask)
}

// Package mlr implements the multinomial (one-vs-rest) logistic regression
// model that the paper's event sequence learner is built on.
//
// The paper deliberately chooses logistic regression over heavier sequence
// models (LSTM) because a five-feature logistic model is accurate enough and
// costs ~2 µs per evaluation. This package mirrors that design: a set of
// binary logistic models, one per possible next event, trained offline with
// stochastic gradient descent; at prediction time the class with the highest
// probability wins, and the probability doubles as the prediction's
// confidence value.
package mlr

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// ErrNotTrained is returned when predicting with an untrained model.
var ErrNotTrained = errors.New("mlr: model has not been trained")

// Sample is one training example: a feature vector and its class label.
type Sample struct {
	Features []float64
	Label    int
}

// Model is a one-vs-rest logistic regression classifier.
type Model struct {
	// NumFeatures is the dimensionality of the feature vectors (bias not
	// included; the model adds its own intercept).
	NumFeatures int `json:"num_features"`
	// NumClasses is the number of distinct labels.
	NumClasses int `json:"num_classes"`
	// Weights[c] holds the per-class weight vector; index 0 is the intercept
	// followed by NumFeatures feature weights.
	Weights [][]float64 `json:"weights"`
}

// NewModel allocates an untrained model for the given shape.
func NewModel(numFeatures, numClasses int) *Model {
	w := make([][]float64, numClasses)
	for c := range w {
		w[c] = make([]float64, numFeatures+1)
	}
	return &Model{NumFeatures: numFeatures, NumClasses: numClasses, Weights: w}
}

// Trained reports whether the model has weights (Fit has been called or the
// model was loaded from a file).
func (m *Model) Trained() bool { return len(m.Weights) == m.NumClasses && m.NumClasses > 0 }

func sigmoid(z float64) float64 {
	// Clamp to avoid overflow in Exp for extreme logits.
	if z < -30 {
		return 1e-13
	}
	if z > 30 {
		return 1 - 1e-13
	}
	return 1 / (1 + math.Exp(-z))
}

// score returns the raw probability of class c for features x.
func (m *Model) score(c int, x []float64) float64 {
	w := m.Weights[c]
	z := w[0]
	for i, xi := range x {
		z += w[i+1] * xi
	}
	return sigmoid(z)
}

// Probabilities returns the per-class probabilities for the feature vector,
// normalized to sum to 1 across classes.
func (m *Model) Probabilities(x []float64) ([]float64, error) {
	return m.ProbabilitiesInto(nil, x)
}

// ProbabilitiesInto is Probabilities with a caller-provided buffer: the
// probabilities are written into dst when its capacity suffices (making the
// evaluation allocation-free) and the result slice is returned either way.
// This is the per-predicted-event fast path; each predictor instance owns
// one buffer and reuses it across evaluations.
func (m *Model) ProbabilitiesInto(dst, x []float64) ([]float64, error) {
	if !m.Trained() {
		return nil, ErrNotTrained
	}
	if len(x) != m.NumFeatures {
		return nil, fmt.Errorf("mlr: feature vector has %d entries, model expects %d", len(x), m.NumFeatures)
	}
	if cap(dst) < m.NumClasses {
		dst = make([]float64, m.NumClasses)
	}
	probs := dst[:m.NumClasses]
	sum := 0.0
	for c := range probs {
		probs[c] = m.score(c, x)
		sum += probs[c]
	}
	if sum <= 0 {
		// Degenerate model: fall back to uniform.
		for c := range probs {
			probs[c] = 1 / float64(m.NumClasses)
		}
		return probs, nil
	}
	for c := range probs {
		probs[c] /= sum
	}
	return probs, nil
}

// Predict returns the most probable class and its (normalized) probability,
// which the event sequence learner uses as the prediction confidence.
func (m *Model) Predict(x []float64) (class int, confidence float64, err error) {
	class, confidence, _, err = m.PredictBuf(nil, x)
	return class, confidence, err
}

// PredictBuf is Predict with a caller-provided probability buffer (see
// ProbabilitiesInto). It additionally returns the (possibly grown) buffer so
// the caller can keep it for the next evaluation.
func (m *Model) PredictBuf(buf, x []float64) (class int, confidence float64, probs []float64, err error) {
	probs, err = m.ProbabilitiesInto(buf, x)
	if err != nil {
		return 0, 0, buf, err
	}
	best := 0
	for c, p := range probs {
		if p > probs[best] {
			best = c
		}
	}
	return best, probs[best], probs, nil
}

// PredictRestricted returns the most probable class among the allowed set
// (the Likely-Next-Event-Set); confidence is renormalized over the allowed
// classes. When allowed is empty the full class set is used.
func (m *Model) PredictRestricted(x []float64, allowed []int) (class int, confidence float64, err error) {
	class, confidence, _, err = m.PredictRestrictedBuf(nil, x, allowed)
	return class, confidence, err
}

// PredictRestrictedBuf is PredictRestricted with a caller-provided
// probability buffer (see ProbabilitiesInto); the (possibly grown) buffer is
// returned for reuse.
func (m *Model) PredictRestrictedBuf(buf, x []float64, allowed []int) (class int, confidence float64, probs []float64, err error) {
	probs, err = m.ProbabilitiesInto(buf, x)
	if err != nil {
		return 0, 0, buf, err
	}
	if len(allowed) == 0 {
		return m.bestOf(probs)
	}
	sum := 0.0
	best := -1
	for _, c := range allowed {
		if c < 0 || c >= m.NumClasses {
			continue
		}
		sum += probs[c]
		if best == -1 || probs[c] > probs[best] {
			best = c
		}
	}
	if best == -1 {
		return m.bestOf(probs)
	}
	if sum <= 0 {
		return best, 1 / float64(len(allowed)), probs, nil
	}
	return best, probs[best] / sum, probs, nil
}

// bestOf returns the argmax over already-computed probabilities.
func (m *Model) bestOf(probs []float64) (class int, confidence float64, out []float64, err error) {
	best := 0
	for c, p := range probs {
		if p > probs[best] {
			best = c
		}
	}
	return best, probs[best], probs, nil
}

// The SGD hyper-parameters: passes over the training set, step size (decayed
// per epoch) and L2 regularization strength.
const (
	epochs       = 120
	learningRate = 0.15
	l2           = 1e-4
)

// Fit trains the model on the samples with plain SGD, shuffling them between
// epochs with a generator seeded by seed. Labels must be in [0, NumClasses).
// Training is deterministic for a fixed seed.
func (m *Model) Fit(samples []Sample, seed int64) error {
	if len(samples) == 0 {
		return errors.New("mlr: no training samples")
	}
	for _, s := range samples {
		if len(s.Features) != m.NumFeatures {
			return fmt.Errorf("mlr: sample has %d features, model expects %d", len(s.Features), m.NumFeatures)
		}
		if s.Label < 0 || s.Label >= m.NumClasses {
			return fmt.Errorf("mlr: label %d out of range [0, %d)", s.Label, m.NumClasses)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	order := rng.Perm(len(samples))
	for epoch := 0; epoch < epochs; epoch++ {
		// Re-shuffle each epoch for SGD convergence.
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		lr := learningRate / (1 + 0.02*float64(epoch))
		for _, idx := range order {
			s := samples[idx]
			for c := 0; c < m.NumClasses; c++ {
				y := 0.0
				if s.Label == c {
					y = 1.0
				}
				p := m.score(c, s.Features)
				g := p - y
				w := m.Weights[c]
				w[0] -= lr * g
				for i, xi := range s.Features {
					w[i+1] -= lr * (g*xi + l2*w[i+1])
				}
			}
		}
	}
	return nil
}

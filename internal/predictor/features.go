// Package predictor implements the PES event predictor: the combination of
// a statistical event sequence learner (logistic regression over the Table 1
// features) and application program analysis over the DOM (the
// Likely-Next-Event-Set and Semantic-Tree-derived hints).
package predictor

import (
	"repro/internal/dom"
	"repro/internal/webevent"
)

// WindowSize is the number of most recent events considered by the
// interaction-dependent features (the paper uses the five most recent
// events).
const WindowSize = 5

// NumFeatures is the dimensionality of the feature vector — the five
// features of Table 1.
const NumFeatures = 5

// FeatureNames lists the features in vector order, matching Table 1.
var FeatureNames = [NumFeatures]string{
	"clickable region percentage in the viewport",
	"visible link percentage in the viewport",
	"distance to the previous click in the window",
	"number of navigations in the window",
	"number of scrolls in the window",
}

// windowEntry is one recent event as remembered by the feature window.
type windowEntry struct {
	typ       webevent.Type
	viewportY float64
}

// Window is a fixed-size buffer of the most recent events of the current
// interaction session. It is a pure value type (no heap state), so the
// virtual window of sequence prediction is a plain struct copy and observing
// an event never allocates.
type Window struct {
	entries [WindowSize]windowEntry
	n       int
}

// Observe appends an event to the window, evicting the oldest entry beyond
// WindowSize.
func (w *Window) Observe(typ webevent.Type, viewportY float64) {
	e := windowEntry{typ: typ, viewportY: viewportY}
	if w.n == WindowSize {
		copy(w.entries[:], w.entries[1:])
		w.entries[WindowSize-1] = e
		return
	}
	w.entries[w.n] = e
	w.n++
}

// Len returns the number of events currently in the window.
func (w *Window) Len() int { return w.n }

// Reset clears the window (used when an interaction session ends).
func (w *Window) Reset() { w.n = 0 }

// Last returns the most recent entry and true, or false when empty.
func (w *Window) Last() (typ webevent.Type, viewportY float64, ok bool) {
	if w.n == 0 {
		return 0, 0, false
	}
	e := w.entries[w.n-1]
	return e.typ, e.viewportY, true
}

// navigations counts Load events in the window.
func (w *Window) navigations() int {
	n := 0
	for _, e := range w.entries[:w.n] {
		if e.typ == webevent.Load {
			n++
		}
	}
	return n
}

// scrolls counts move-interaction events in the window.
func (w *Window) scrolls() int {
	n := 0
	for _, e := range w.entries[:w.n] {
		if e.typ.IsMove() {
			n++
		}
	}
	return n
}

// distanceToPreviousClick returns the normalized vertical distance between
// the current viewport centre and the viewport position of the most recent
// tap in the window, or 1 when the window contains no tap.
func (w *Window) distanceToPreviousClick(currentY float64) float64 {
	for i := w.n - 1; i >= 0; i-- {
		if w.entries[i].typ.IsTap() {
			d := currentY - w.entries[i].viewportY
			if d < 0 {
				d = -d
			}
			if d > 1 {
				d = 1
			}
			return d
		}
	}
	return 1
}

// Features computes the Table 1 feature vector for the current DOM state and
// event window. All features are normalized to [0, 1].
func Features(tree *dom.Tree, w *Window) []float64 {
	var buf [NumFeatures]float64
	FeaturesInto(&buf, tree, w, tree.ViewportCenterY())
	out := make([]float64, NumFeatures)
	copy(out, buf[:])
	return out
}

// FeaturesInto fills dst with the Table 1 feature vector without allocating.
// currentY is the viewport centre the interaction-dependent features are
// evaluated against (the tree's actual centre, or a virtual position during
// sequence prediction).
func FeaturesInto(dst *[NumFeatures]float64, tree *dom.Tree, w *Window, currentY float64) {
	dst[0] = tree.ClickableFraction()
	dst[1] = tree.LinkFraction()
	dst[2] = w.distanceToPreviousClick(currentY)
	dst[3] = float64(w.navigations()) / WindowSize
	dst[4] = float64(w.scrolls()) / WindowSize
}

// Package control implements the PES control unit: the Pending Frame Buffer
// (PFB) that holds speculative frames until their predicted events are
// confirmed by real user input, and the fallback controller that disables
// speculation after a run of consecutive mis-predictions (Sec. 5.4).
package control

import (
	"repro/internal/render"
	"repro/internal/simtime"
	"repro/internal/webevent"
)

// PendingFrame is one speculative frame awaiting confirmation.
type PendingFrame struct {
	// Type is the predicted event type the frame answers.
	Type webevent.Type
	// Frame is the speculatively produced frame, held by value so its
	// production record — energy included — travels with it.
	Frame render.Frame
}

// PFB is the Pending Frame Buffer: an ordered queue of speculative frames.
// Frames are committed strictly in prediction order; a mismatch squashes the
// entire buffer.
type PFB struct {
	frames []PendingFrame
}

// Push appends a completed speculative frame.
func (b *PFB) Push(typ webevent.Type, f render.Frame) {
	b.frames = append(b.frames, PendingFrame{Type: typ, Frame: f})
}

// Size returns the current number of pending frames.
func (b *PFB) Size() int { return len(b.frames) }

// Head returns the oldest pending frame without removing it.
func (b *PFB) Head() (PendingFrame, bool) {
	if len(b.frames) == 0 {
		return PendingFrame{}, false
	}
	return b.frames[0], true
}

// Commit removes and returns the oldest pending frame; it must only be
// called after Head confirmed a match.
func (b *PFB) Commit() (PendingFrame, bool) {
	if len(b.frames) == 0 {
		return PendingFrame{}, false
	}
	f := b.frames[0]
	b.frames = b.frames[1:]
	return f, true
}

// Squash drops every pending frame and returns the dropped frames, oldest
// first, with their total production time: the paper's mis-prediction waste
// metric. The returned slice aliases the buffer and is valid until the next
// Push.
func (b *PFB) Squash() (dropped []PendingFrame, wasted simtime.Duration) {
	dropped = b.frames
	for _, pf := range dropped {
		wasted += pf.Frame.ProductionTime()
	}
	b.frames = b.frames[:0]
	return dropped, wasted
}

// Fallback tracks consecutive mis-predictions and disables speculation after
// the paper's threshold (> 3 in a row). The paper does not specify when
// prediction re-arms; this implementation re-arms after a configurable
// number of reactively handled events (default 10).
type Fallback struct {
	// Threshold is the number of consecutive mis-predictions after which
	// speculation is disabled (default 3, i.e. disabled on the 4th).
	Threshold int
	// RearmAfter is the number of reactively handled events after which
	// speculation is re-enabled (default 10).
	RearmAfter int

	consecutive   int
	disabled      bool
	reactiveCount int
}

// NewFallback returns a Fallback with the paper's defaults.
func NewFallback() *Fallback { return &Fallback{Threshold: 3, RearmAfter: 10} }

// Enabled reports whether speculation is currently allowed.
func (f *Fallback) Enabled() bool { return !f.disabled }

// OnMisprediction records a mis-prediction; it returns true when this
// mis-prediction crosses the threshold and disables speculation.
func (f *Fallback) OnMisprediction() bool {
	f.consecutive++
	if !f.disabled && f.consecutive > f.Threshold {
		f.disabled = true
		f.reactiveCount = 0
		return true
	}
	return false
}

// OnCorrectPrediction resets the consecutive mis-prediction counter.
func (f *Fallback) OnCorrectPrediction() { f.consecutive = 0 }

// OnReactiveEvent records an event handled without speculation; after
// RearmAfter such events speculation is re-enabled.
func (f *Fallback) OnReactiveEvent() {
	if !f.disabled {
		return
	}
	f.reactiveCount++
	if f.reactiveCount >= f.RearmAfter {
		f.disabled = false
		f.consecutive = 0
	}
}

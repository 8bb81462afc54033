// Package render models the part of the Web rendering engine that matters
// for event scheduling: after an event's JavaScript callback runs, the
// engine produces a frame through the style → layout → paint → composite
// pipeline, and the frame becomes visible at the next display refresh
// (VSync, 60 Hz on mobile devices). Event latency therefore includes an idle
// period between frame completion and the next VSync edge (Fig. 1 of the
// paper).
package render

import (
	"repro/internal/acmp"
	"repro/internal/simtime"
)

// VSyncPeriod is the display refresh interval (60 Hz).
const VSyncPeriod = 16667 * simtime.Microsecond

// Frame is the product of executing one speculative event through the
// pipeline: when it was produced, on which configuration, and what it cost.
// A commit reports these; a squash charges them as mis-prediction waste.
type Frame struct {
	// Started and Completed bound the frame's production on the CPU.
	Started, Completed simtime.Time
	// Config is the ACMP configuration the frame was produced on.
	Config acmp.Config
	// EnergyMJ is the energy spent producing the frame, including the
	// switch into Config.
	EnergyMJ float64
}

// ProductionTime returns how long the frame took to produce.
func (f *Frame) ProductionTime() simtime.Duration { return f.Completed.Sub(f.Started) }

// DisplayMargin is the average wait between frame completion and the next
// display refresh (half a VSync period). QoS-aware schedulers subtract it
// from their deadlines so that frames not only finish but also reach the
// display within the QoS target.
const DisplayMargin = VSyncPeriod / 2

// DisplayLatency returns the user-perceived event latency: the delay from
// the event trigger until the frame reaches the display. The display adds,
// on average, half a refresh period of waiting for the next VSync edge
// (VSync phase is unsynchronized with user input). A frame completed before
// its trigger (fully hidden by speculation) still pays that submission wait.
func DisplayLatency(trigger simtime.Time, frameCompleted simtime.Time) simtime.Duration {
	var tail simtime.Duration
	if frameCompleted.After(trigger) {
		tail = frameCompleted.Sub(trigger)
	}
	return tail + DisplayMargin
}

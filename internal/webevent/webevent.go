// Package webevent defines the event vocabulary of the mobile Web runtime:
// the DOM-level event types users trigger, the three primitive interactions
// the paper schedules (load, tap, move) and their QoS targets, and the event
// instances that flow from the interaction traces into the schedulers.
package webevent

import (
	"fmt"

	"repro/internal/acmp"
	"repro/internal/simtime"
)

// Type is a DOM-level event type. Different DOM types can be manifestations
// of the same primitive interaction (e.g. click and touchstart are both
// "tap"), exactly as in the paper's interaction traces.
type Type int

const (
	// Load is the navigation/page-load event.
	Load Type = iota
	// Click is a tap delivered as a click event.
	Click
	// TouchStart is a tap delivered as a touchstart event.
	TouchStart
	// TouchMove is a move (continuous scroll/drag) delivered as touchmove.
	TouchMove
	// Scroll is a move delivered as a scroll event.
	Scroll
	// Submit is a form submission (counted as a tap interaction).
	Submit

	// NumTypes is the number of DOM-level event types; useful for building
	// per-type tables and one-vs-rest classifiers.
	NumTypes int = iota
)

// AllTypes lists every DOM-level event type in a stable order.
func AllTypes() []Type {
	return []Type{Load, Click, TouchStart, TouchMove, Scroll, Submit}
}

// String returns the DOM-ish name of the event type (e.g. "onclick").
func (t Type) String() string {
	switch t {
	case Load:
		return "load"
	case Click:
		return "click"
	case TouchStart:
		return "touchstart"
	case TouchMove:
		return "touchmove"
	case Scroll:
		return "scroll"
	case Submit:
		return "submit"
	default:
		return fmt.Sprintf("Type(%d)", int(t))
	}
}

// ParseType is the inverse of Type.String. It returns an error for unknown
// names; it is used when decoding recorded traces.
func ParseType(s string) (Type, error) {
	for _, t := range AllTypes() {
		if t.String() == s {
			return t, nil
		}
	}
	return 0, fmt.Errorf("webevent: unknown event type %q", s)
}

// Interaction is one of the three primitive user interactions whose QoS
// targets the paper uses for scheduling.
type Interaction int

const (
	// LoadInteraction is a page load; QoS target 3 s.
	LoadInteraction Interaction = iota
	// TapInteraction is a discrete tap; QoS target 300 ms.
	TapInteraction
	// MoveInteraction is a continuous move/scroll step; QoS target 33 ms.
	MoveInteraction

	// NumInteractions is the number of primitive interactions.
	NumInteractions int = iota
)

// String returns the interaction name.
func (i Interaction) String() string {
	switch i {
	case LoadInteraction:
		return "load"
	case TapInteraction:
		return "tap"
	case MoveInteraction:
		return "move"
	default:
		return fmt.Sprintf("Interaction(%d)", int(i))
	}
}

// QoSTarget returns the maximally tolerable event latency for the
// interaction: 3 s for loads, 300 ms for taps, and 33 ms for moves
// (Sec. 4.2 of the paper).
func (i Interaction) QoSTarget() simtime.Duration {
	switch i {
	case LoadInteraction:
		return 3 * simtime.Second
	case TapInteraction:
		return 300 * simtime.Millisecond
	case MoveInteraction:
		return 33 * simtime.Millisecond
	default:
		return 300 * simtime.Millisecond
	}
}

// Interaction maps a DOM-level event type to its primitive interaction.
func (t Type) Interaction() Interaction {
	switch t {
	case Load:
		return LoadInteraction
	case Click, TouchStart, Submit:
		return TapInteraction
	case TouchMove, Scroll:
		return MoveInteraction
	default:
		return TapInteraction
	}
}

// QoSTarget is shorthand for t.Interaction().QoSTarget().
func (t Type) QoSTarget() simtime.Duration { return t.Interaction().QoSTarget() }

// IsTap reports whether the event type is a manifestation of the tap
// interaction.
func (t Type) IsTap() bool { return t.Interaction() == TapInteraction }

// IsMove reports whether the event type is a manifestation of the move
// interaction.
func (t Type) IsMove() bool { return t.Interaction() == MoveInteraction }

// NodeKind mirrors dom.NodeKind as an opaque small integer so that the event
// package does not depend on the DOM package (the DOM package depends on
// webevent for listener registration). It is used only as part of the cost
// model signature.
type NodeKind int

// Event is one event instance in an interaction trace.
type Event struct {
	// Seq is the position of the event within its trace (0-based).
	Seq int
	// App is the application the event belongs to.
	App string
	// Type is the DOM-level event type.
	Type Type
	// Trigger is the instant the user input that generates the event occurs.
	Trigger simtime.Time
	// Target is the DOM node the event is delivered to (0 for load events).
	Target int
	// TargetKind is the kind of the target node; it is part of the cost
	// model signature because e.g. menu-toggle clicks cost more than link
	// clicks.
	TargetKind NodeKind
	// Work is the ground-truth hardware workload of the event's callback and
	// rendering work. Schedulers never read this directly; they only observe
	// realized latencies.
	Work acmp.Workload
	// ViewportY is the vertical position (fraction of page height, 0–1) of
	// the viewport when the event is triggered; used by the feature
	// extractor for the "distance to previous click" feature.
	ViewportY float64
	// Navigation marks a tap that triggers a page navigation; the next event
	// in the trace will be the resulting Load.
	Navigation bool
}

// QoSTarget returns the deadline duration for this event.
func (e *Event) QoSTarget() simtime.Duration { return e.Type.QoSTarget() }

// Deadline returns the absolute instant by which the event's frame must be
// on screen to satisfy its QoS target.
func (e *Event) Deadline() simtime.Time { return e.Trigger.Add(e.QoSTarget()) }

// Signature identifies a class of events for the purposes of the cost model:
// events from the same application with the same type and target kind are
// assumed to have similar Tmem/Ndep, mirroring the paper's per-event-type
// latency measurement.
type Signature struct {
	App        string
	Type       Type
	TargetKind NodeKind
}

// Signature returns the cost model signature of the event.
func (e *Event) Signature() Signature {
	return Signature{App: e.App, Type: e.Type, TargetKind: e.TargetKind}
}

// String renders a compact human-readable description of the event.
func (e *Event) String() string {
	return fmt.Sprintf("#%d %s %s @%s", e.Seq, e.App, e.Type, e.Trigger)
}

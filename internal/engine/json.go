package engine

import (
	"encoding/json"
	"math"
	"reflect"
	"slices"
	"strconv"

	"repro/internal/webevent"
)

// AppendJSON appends the JSON encoding of r to dst and returns the extended
// buffer. The bytes are exactly those of json.Marshal(r): Go field names in
// declaration order (Solver under its tags), nil slices and pointers as
// null, floats formatted by encoding/json's rule, strings with its
// HTML-safe escaping. A NaN or infinite float fails with the error
// json.Marshal returns, and dst comes back unextended. A nil r encodes as
// null.
//
// It is the one encoder behind the results stream, the results document
// and the persistent store; encoding/json stays the decoder and, in the
// tests, the oracle every byte is checked against. Into a buffer with room
// it does not allocate.
func (r *Result) AppendJSON(dst []byte) ([]byte, error) {
	return r.AppendJSONMemo(dst, nil)
}

// AppendJSONMemo is AppendJSON sharing trace events' bytes through m: an
// outcome whose event equals one m recorded copies that event's bytes from
// where they already sit in dst instead of encoding it again. The bytes are
// AppendJSON's either way. A nil m encodes every event.
//
// m records offsets into dst, so it belongs to one buffer: every call with
// m must pass that buffer as it was returned by the previous call (or with
// more bytes appended), and the caller resets m whenever it truncates or
// replaces the buffer. On failure m is reset, since the bytes of the events
// it recorded in this call were dropped with dst's extension.
//
// A sealed result (see Seal) writes its bytes once: the first successful
// call keeps a copy of them, and every later call appends that copy, with
// or without m, recording nothing in m.
func (r *Result) AppendJSONMemo(dst []byte, m *EventMemo) ([]byte, error) {
	if r == nil {
		return append(dst, "null"...), nil
	}
	seal := r.seal
	if seal == nil || seal.owner != r {
		return r.appendJSON(dst, m)
	}
	if b := seal.encoded.Load(); b != nil {
		return append(dst, *b...), nil
	}
	n := len(dst)
	dst, err := r.appendJSON(dst, m)
	if err == nil {
		// Concurrent first encodes write equal bytes; the first to
		// finish is kept.
		b := slices.Clone(dst[n:])
		seal.encoded.CompareAndSwap(nil, &b)
	}
	return dst, err
}

// appendJSON is AppendJSONMemo's encoder, for a non-nil r.
func (r *Result) appendJSON(dst []byte, m *EventMemo) ([]byte, error) {
	// Make room for the whole encoding up front (an outcome takes ~350
	// bytes), at least doubling a buffer that lacks it: a result costs one
	// allocation in a nil buffer, and a document of many results grows
	// geometrically.
	if size := 512 + 400*len(r.Outcomes) + 32*len(r.PFBSamples); cap(dst)-len(dst) < size {
		dst = slices.Grow(dst, max(size, len(dst)))
	}
	e := jsonAppender{b: dst}
	e.lit(`{"Scheduler":`)
	e.str(r.Scheduler)
	e.lit(`,"App":`)
	e.str(r.App)
	e.lit(`,"Outcomes":`)
	if r.Outcomes == nil {
		e.lit("null")
	} else {
		e.lit("[")
		for i := range r.Outcomes {
			if i > 0 {
				e.lit(",")
			}
			e.outcome(&r.Outcomes[i], m)
		}
		e.lit("]")
	}
	e.lit(`,"BusyEnergyMJ":`)
	e.float(r.BusyEnergyMJ)
	e.lit(`,"IdleEnergyMJ":`)
	e.float(r.IdleEnergyMJ)
	e.lit(`,"WastedEnergyMJ":`)
	e.float(r.WastedEnergyMJ)
	e.lit(`,"TotalEnergyMJ":`)
	e.float(r.TotalEnergyMJ)
	e.lit(`,"Violations":`)
	e.int(int64(r.Violations))
	e.lit(`,"ViolationRate":`)
	e.float(r.ViolationRate)
	e.lit(`,"CommittedFrames":`)
	e.int(int64(r.CommittedFrames))
	e.lit(`,"Mispredictions":`)
	e.int(int64(r.Mispredictions))
	e.lit(`,"SquashedFrames":`)
	e.int(int64(r.SquashedFrames))
	e.lit(`,"MispredictWaste":`)
	e.int(int64(r.MispredictWaste))
	e.lit(`,"PFBSamples":`)
	if r.PFBSamples == nil {
		e.lit("null")
	} else {
		e.lit("[")
		for i, s := range r.PFBSamples {
			if i > 0 {
				e.lit(",")
			}
			e.lit(`{"Seq":`)
			e.int(int64(s.Seq))
			e.lit(`,"Size":`)
			e.int(int64(s.Size))
			e.lit("}")
		}
		e.lit("]")
	}
	e.lit(`,"SpeculationStops":`)
	e.int(int64(r.SpeculationStops))
	e.lit(`,"TotalBusy":`)
	e.int(int64(r.TotalBusy))
	e.lit(`,"BigBusy":`)
	e.int(int64(r.BigBusy))
	e.lit(`,"MaxPerfBusy":`)
	e.int(int64(r.MaxPerfBusy))
	e.lit(`,"Duration":`)
	e.int(int64(r.Duration))
	e.lit(`,"Solver":{"solves":`)
	e.int(int64(r.Solver.Solves))
	e.lit(`,"nodes":`)
	e.int(r.Solver.Nodes)
	e.lit(`,"plan_cache_hits":`)
	e.int(int64(r.Solver.PlanCacheHits))
	e.lit(`,"budget_aborts":`)
	e.int(int64(r.Solver.BudgetAborts))
	e.lit("}}")
	if e.err != nil {
		m.Reset()
		return dst, e.err
	}
	return e.b, nil
}

// EventMemo records, per event Seq, the last event a buffer's results
// encoded and where its bytes sit in that buffer (see AppendJSONMemo).
// Results replaying one trace carry equal events at equal Seqs, so when
// they are encoded one after the other into one buffer, each event is
// encoded once; an event of another trace at the same Seq overwrites the
// slot. The zero EventMemo is empty and ready to use. It grows to the
// highest Seq it has seen, at most maxMemoEvents slots, and keeps its
// slots across Reset, so a reused memo does not allocate.
type EventMemo struct {
	slots []eventSlot
}

// eventSlot is one recorded event: a copy of it, and its bytes' offsets in
// the buffer. end is 0 in an empty slot (an encoding is never empty).
type eventSlot struct {
	ev         webevent.Event
	start, end int
}

// maxMemoEvents bounds an EventMemo's slots (a trace has at most 70 events
// by default). Seq arrives from the wire in cluster mode, so an event whose
// Seq falls outside [0, maxMemoEvents) is encoded plainly.
const maxMemoEvents = 1024

// Reset empties the memo, keeping its slots for reuse. A nil memo is a
// no-op.
func (m *EventMemo) Reset() {
	if m != nil {
		clear(m.slots)
	}
}

// slot returns the memo's slot for seq, growing the memo to hold it, or
// nil when m is nil or seq is out of range.
func (m *EventMemo) slot(seq int) *eventSlot {
	if m == nil || seq < 0 || seq >= maxMemoEvents {
		return nil
	}
	if seq >= len(m.slots) {
		m.slots = append(m.slots, make([]eventSlot, seq+1-len(m.slots))...)
	}
	return &m.slots[seq]
}

// jsonAppender accumulates one encoding; the first unsupported float sticks
// in err and the caller discards the bytes.
type jsonAppender struct {
	b   []byte
	err error
}

func (e *jsonAppender) outcome(o *Outcome, m *EventMemo) {
	e.lit(`{"Event":`)
	e.event(o.Event, m)
	e.lit(`,"Start":`)
	e.int(int64(o.Start))
	e.lit(`,"Finish":`)
	e.int(int64(o.Finish))
	e.lit(`,"Latency":`)
	e.int(int64(o.Latency))
	e.lit(`,"Violated":`)
	e.bool(o.Violated)
	e.lit(`,"Config":{"Core":`)
	e.int(int64(o.Config.Core))
	e.lit(`,"FreqMHz":`)
	e.int(int64(o.Config.FreqMHz))
	e.lit(`},"EnergyMJ":`)
	e.float(o.EnergyMJ)
	e.lit(`,"Speculative":`)
	e.bool(o.Speculative)
	e.lit("}")
}

// event encodes ev, or copies its bytes if m recorded an equal event.
func (e *jsonAppender) event(ev *webevent.Event, m *EventMemo) {
	if ev == nil {
		e.lit("null")
		return
	}
	// Events are compared by value, so results decoded from the wire share
	// too. == alone would match +0 with -0, which encode differently, so
	// ViewportY is also compared bit for bit (a NaN never matches).
	slot := m.slot(ev.Seq)
	if slot != nil && slot.end != 0 && slot.ev == *ev &&
		math.Float64bits(slot.ev.ViewportY) == math.Float64bits(ev.ViewportY) {
		e.b = append(e.b, e.b[slot.start:slot.end]...)
		return
	}
	start := len(e.b)
	e.lit(`{"Seq":`)
	e.int(int64(ev.Seq))
	e.lit(`,"App":`)
	e.str(ev.App)
	e.lit(`,"Type":`)
	e.int(int64(ev.Type))
	e.lit(`,"Trigger":`)
	e.int(int64(ev.Trigger))
	e.lit(`,"Target":`)
	e.int(int64(ev.Target))
	e.lit(`,"TargetKind":`)
	e.int(int64(ev.TargetKind))
	e.lit(`,"Work":{"Tmem":`)
	e.int(int64(ev.Work.Tmem))
	e.lit(`,"Cycles":`)
	e.int(ev.Work.Cycles)
	e.lit(`},"ViewportY":`)
	e.float(ev.ViewportY)
	e.lit(`,"Navigation":`)
	e.bool(ev.Navigation)
	e.lit("}")
	if slot != nil {
		*slot = eventSlot{ev: *ev, start: start, end: len(e.b)}
	}
}

// lit appends JSON text verbatim.
func (e *jsonAppender) lit(s string) { e.b = append(e.b, s...) }

func (e *jsonAppender) int(v int64) { e.b = strconv.AppendInt(e.b, v, 10) }

func (e *jsonAppender) bool(v bool) { e.b = strconv.AppendBool(e.b, v) }

func (e *jsonAppender) float(f float64) {
	b, err := AppendJSONFloat(e.b, f)
	if err != nil && e.err == nil {
		e.err = err
	}
	e.b = b
}

func (e *jsonAppender) str(s string) { e.b = AppendJSONString(e.b, s) }

// AppendJSONFloat appends f as encoding/json writes a float64: the
// shortest 'f' form, or 'e' for magnitudes below 1e-6 or from 1e21 on, with
// a two-digit negative exponent trimmed to one (1e-07 becomes 1e-7). A NaN
// or infinite f fails with the error json.Marshal returns, and dst comes
// back unextended.
func AppendJSONFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return dst, &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst, nil
}

// AppendJSONString appends s quoted as encoding/json writes it. Plain
// printable ASCII without the characters encoding/json escapes (quote,
// backslash, and the HTML-unsafe <, >, &) is copied as is; anything else is
// rare in results and goes through json.Marshal, so escaping, U+2028/U+2029
// and invalid UTF-8 match it exactly.
func AppendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			quoted, _ := json.Marshal(s) // a string always encodes
			return append(dst, quoted...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

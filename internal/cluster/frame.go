package cluster

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"

	"repro/internal/acmp"
	"repro/internal/batch"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/optimizer"
	"repro/internal/simtime"
	"repro/internal/webevent"
)

// The body of a successful POST /v1/shards is a shard-response frame, the
// only encoding of a ShardResponse on the wire. Results are the bulk of a
// shard and have a fixed shape, so they travel as a binary record stream;
// the small fields that change shape with the code (Error, Stats, Spans)
// ride as one JSON tail.
//
// Layout, version 2. Unsigned integers are uvarints, signed ones zig-zag
// varints, floats their IEEE-754 bits as 8 little-endian bytes (so every
// result merges bit-identically), strings a uvarint length and the bytes.
// A slice is written as a uvarint of its length plus one, 0 meaning nil, so
// a nil slice and an empty one survive as themselves.
//
//	magic "PESF", version byte
//	slice of results, each a presence byte (0 nil, 1 present) then:
//	  Scheduler, App
//	  slice of Outcomes, each:
//	    flags byte: event present, event App differs from the result's,
//	                event Navigation, Violated, Speculative
//	    event (when present): Seq, App (when it differs), Type, Trigger,
//	      Target, TargetKind, Work.Tmem, Work.Cycles, ViewportY
//	    Start, Finish, Latency, Config.Core, Config.FreqMHz, EnergyMJ
//	  BusyEnergyMJ, IdleEnergyMJ, WastedEnergyMJ, TotalEnergyMJ
//	  Violations, ViolationRate, CommittedFrames, Mispredictions,
//	  SquashedFrames, MispredictWaste
//	  slice of PFBSamples, each Seq, Size
//	  SpeculationStops, TotalBusy, BigBusy, MaxPerfBusy, Duration
//	  Solver: Solves, Nodes, PlanCacheHits, BudgetAborts
//	tail: uvarint length, then JSON {"error", "stats", "spans"}
//
// The decoder accepts only frames the encoder writes: minimal varints,
// known flag bits, a canonical tail, no trailing bytes. So a frame that
// decodes re-encodes to the same bytes, and every count is checked against
// the bytes left before anything is allocated for it.
//
// Version 1 also carried the solver's host wall time after BudgetAborts;
// version 2 results hold only deterministic fields. Version 3 changes only
// the tail: its artifact stats no longer carry trace_store_hits. A canonical
// tail makes the tail's shape part of the frame, so a build whose stats
// differ is version skew, not a broken worker.

const (
	// frameVersion is the frame version this build writes and reads. A
	// coordinator sends it in frameVersionHeader; a worker built for another
	// version rejects the shard with a 400 naming both.
	frameVersion       = 3
	frameVersionHeader = "X-Pes-Shard-Frame"
	frameContentType   = "application/x-pes-shard-frame"
)

var frameMagic = [4]byte{'P', 'E', 'S', 'F'}

// Outcome flag bits.
const (
	flagEvent = 1 << iota
	flagEventApp
	flagNavigation
	flagViolated
	flagSpeculative
	flagsKnown = flagEvent | flagEventApp | flagNavigation | flagViolated | flagSpeculative
)

// Minimum encoded sizes, the divisors of the count checks: an outcome is
// at least its flags, five one-byte varints and EnergyMJ; a PFB sample two
// varints; a result its presence byte.
const (
	minOutcomeBytes = 1 + 5 + 8
	minSampleBytes  = 2
	minResultBytes  = 1
)

// frameTail holds the shard response's small, changing fields.
type frameTail struct {
	Error string      `json:"error,omitempty"`
	Stats batch.Stats `json:"stats"`
	Spans []obs.Span  `json:"spans,omitempty"`
}

// errFrame prefixes every decode failure.
var errFrame = errors.New("malformed shard frame")

// appendShardResponse appends resp's frame to dst.
func appendShardResponse(dst []byte, resp ShardResponse) ([]byte, error) {
	tail, err := json.Marshal(frameTail{Error: resp.Error, Stats: resp.Stats, Spans: resp.Spans})
	if err != nil {
		return dst, fmt.Errorf("encoding shard frame tail: %w", err)
	}
	w := frameWriter{b: dst}
	w.b = append(w.b, frameMagic[:]...)
	w.b = append(w.b, frameVersion)
	w.count(len(resp.Results), resp.Results == nil)
	for _, res := range resp.Results {
		if res == nil {
			w.b = append(w.b, 0)
			continue
		}
		w.b = append(w.b, 1)
		w.result(res)
	}
	w.uvarint(uint64(len(tail)))
	w.b = append(w.b, tail...)
	return w.b, nil
}

// decodeShardResponse decodes one whole frame.
func decodeShardResponse(frame []byte) (ShardResponse, error) {
	if len(frame) < len(frameMagic)+1 || !bytes.Equal(frame[:len(frameMagic)], frameMagic[:]) {
		return ShardResponse{}, fmt.Errorf("%w: bad magic", errFrame)
	}
	if v := frame[len(frameMagic)]; v != frameVersion {
		return ShardResponse{}, fmt.Errorf("%w: version %d, this build reads %d", errFrame, v, frameVersion)
	}
	r := frameReader{b: frame[len(frameMagic)+1:]}
	var resp ShardResponse
	if n, isNil := r.count(minResultBytes); !isNil {
		resp.Results = make([]*engine.Result, n)
		for i := range resp.Results {
			switch r.byte() {
			case 0:
			case 1:
				resp.Results[i] = new(engine.Result)
				r.result(resp.Results[i])
			default:
				r.fail("result %d: bad presence byte", i)
			}
			if r.err != nil {
				return ShardResponse{}, r.err
			}
		}
	}
	tail := r.bytes()
	if r.err != nil {
		return ShardResponse{}, r.err
	}
	if len(r.b) != 0 {
		return ShardResponse{}, fmt.Errorf("%w: %d trailing bytes", errFrame, len(r.b))
	}
	var t frameTail
	if err := json.Unmarshal(tail, &t); err != nil {
		return ShardResponse{}, fmt.Errorf("%w: tail: %v", errFrame, err)
	}
	if canon, err := json.Marshal(t); err != nil || !bytes.Equal(canon, tail) {
		return ShardResponse{}, fmt.Errorf("%w: non-canonical tail", errFrame)
	}
	resp.Error, resp.Stats, resp.Spans = t.Error, t.Stats, t.Spans
	return resp, nil
}

type frameWriter struct{ b []byte }

func (w *frameWriter) uvarint(v uint64) { w.b = binary.AppendUvarint(w.b, v) }
func (w *frameWriter) varint(v int64)   { w.b = binary.AppendVarint(w.b, v) }
func (w *frameWriter) float(f float64) {
	w.b = binary.LittleEndian.AppendUint64(w.b, math.Float64bits(f))
}

func (w *frameWriter) str(s string) {
	w.uvarint(uint64(len(s)))
	w.b = append(w.b, s...)
}

// count writes a slice length, 0 for a nil slice.
func (w *frameWriter) count(n int, isNil bool) {
	if isNil {
		w.uvarint(0)
		return
	}
	w.uvarint(uint64(n) + 1)
}

func (w *frameWriter) result(res *engine.Result) {
	w.str(res.Scheduler)
	w.str(res.App)
	w.count(len(res.Outcomes), res.Outcomes == nil)
	for i := range res.Outcomes {
		w.outcome(&res.Outcomes[i], res.App)
	}
	w.float(res.BusyEnergyMJ)
	w.float(res.IdleEnergyMJ)
	w.float(res.WastedEnergyMJ)
	w.float(res.TotalEnergyMJ)
	w.varint(int64(res.Violations))
	w.float(res.ViolationRate)
	w.varint(int64(res.CommittedFrames))
	w.varint(int64(res.Mispredictions))
	w.varint(int64(res.SquashedFrames))
	w.varint(int64(res.MispredictWaste))
	w.count(len(res.PFBSamples), res.PFBSamples == nil)
	for _, s := range res.PFBSamples {
		w.varint(int64(s.Seq))
		w.varint(int64(s.Size))
	}
	w.varint(int64(res.SpeculationStops))
	w.varint(int64(res.TotalBusy))
	w.varint(int64(res.BigBusy))
	w.varint(int64(res.MaxPerfBusy))
	w.varint(int64(res.Duration))
	w.varint(int64(res.Solver.Solves))
	w.varint(res.Solver.Nodes)
	w.varint(int64(res.Solver.PlanCacheHits))
	w.varint(int64(res.Solver.BudgetAborts))
}

func (w *frameWriter) outcome(o *engine.Outcome, app string) {
	var flags byte
	if e := o.Event; e != nil {
		flags |= flagEvent
		if e.App != app {
			flags |= flagEventApp
		}
		if e.Navigation {
			flags |= flagNavigation
		}
	}
	if o.Violated {
		flags |= flagViolated
	}
	if o.Speculative {
		flags |= flagSpeculative
	}
	w.b = append(w.b, flags)
	if e := o.Event; e != nil {
		w.varint(int64(e.Seq))
		if flags&flagEventApp != 0 {
			w.str(e.App)
		}
		w.varint(int64(e.Type))
		w.varint(int64(e.Trigger))
		w.varint(int64(e.Target))
		w.varint(int64(e.TargetKind))
		w.varint(int64(e.Work.Tmem))
		w.varint(e.Work.Cycles)
		w.float(e.ViewportY)
	}
	w.varint(int64(o.Start))
	w.varint(int64(o.Finish))
	w.varint(int64(o.Latency))
	w.varint(int64(o.Config.Core))
	w.varint(int64(o.Config.FreqMHz))
	w.float(o.EnergyMJ)
}

// frameReader consumes a frame. The first failure sticks: it empties the
// input, so every later read returns zero values and the caller checks err
// once per record.
type frameReader struct {
	b   []byte
	err error
}

func (r *frameReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s", errFrame, fmt.Sprintf(format, args...))
	}
	r.b = nil
}

func (r *frameReader) byte() byte {
	if len(r.b) == 0 {
		r.fail("truncated")
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

func (r *frameReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail("truncated or overflowing varint")
		return 0
	}
	if n > 1 && r.b[n-1] == 0 {
		r.fail("non-minimal varint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *frameReader) varint() int64 {
	u := r.uvarint()
	v := int64(u >> 1)
	if u&1 != 0 {
		v = ^v
	}
	return v
}

func (r *frameReader) int() int { return int(r.varint()) }

func (r *frameReader) float() float64 {
	if len(r.b) < 8 {
		r.fail("truncated float")
		return 0
	}
	f := math.Float64frombits(binary.LittleEndian.Uint64(r.b))
	r.b = r.b[8:]
	return f
}

// bytes reads a length-prefixed byte string, aliasing the input.
func (r *frameReader) bytes() []byte {
	n := r.uvarint()
	if n > uint64(len(r.b)) {
		r.fail("string of %d bytes exceeds the %d remaining", n, len(r.b))
		return nil
	}
	s := r.b[:n]
	r.b = r.b[n:]
	return s
}

func (r *frameReader) str() string { return string(r.bytes()) }

// count reads a slice length written by frameWriter.count, rejecting one
// that the remaining bytes cannot hold at min bytes per element.
func (r *frameReader) count(min int) (n int, isNil bool) {
	v := r.uvarint()
	if v == 0 {
		return 0, true
	}
	if v-1 > uint64(len(r.b)/min) {
		r.fail("count %d exceeds the %d bytes remaining", v-1, len(r.b))
		return 0, true
	}
	return int(v - 1), false
}

func (r *frameReader) result(res *engine.Result) {
	res.Scheduler = r.str()
	res.App = r.str()
	if n, isNil := r.count(minOutcomeBytes); !isNil {
		res.Outcomes = make([]engine.Outcome, n)
		events := make([]webevent.Event, n)
		for i := range res.Outcomes {
			r.outcome(&res.Outcomes[i], &events[i], res.App)
			if r.err != nil {
				return
			}
		}
	}
	res.BusyEnergyMJ = r.float()
	res.IdleEnergyMJ = r.float()
	res.WastedEnergyMJ = r.float()
	res.TotalEnergyMJ = r.float()
	res.Violations = r.int()
	res.ViolationRate = r.float()
	res.CommittedFrames = r.int()
	res.Mispredictions = r.int()
	res.SquashedFrames = r.int()
	res.MispredictWaste = simtime.Duration(r.varint())
	if n, isNil := r.count(minSampleBytes); !isNil {
		res.PFBSamples = make([]engine.PFBSample, n)
		for i := range res.PFBSamples {
			res.PFBSamples[i] = engine.PFBSample{Seq: r.int(), Size: r.int()}
		}
	}
	res.SpeculationStops = r.int()
	res.TotalBusy = simtime.Duration(r.varint())
	res.BigBusy = simtime.Duration(r.varint())
	res.MaxPerfBusy = simtime.Duration(r.varint())
	res.Duration = simtime.Duration(r.varint())
	res.Solver = optimizer.SolverCounts{
		Solves:        r.int(),
		Nodes:         r.varint(),
		PlanCacheHits: r.int(),
		BudgetAborts:  r.int(),
	}
}

func (r *frameReader) outcome(o *engine.Outcome, e *webevent.Event, app string) {
	flags := r.byte()
	if flags&^flagsKnown != 0 || (flags&flagEvent == 0 && flags&(flagEventApp|flagNavigation) != 0) {
		r.fail("bad outcome flags %#x", flags)
		return
	}
	if flags&flagEvent != 0 {
		e.Seq = r.int()
		e.App = app
		if flags&flagEventApp != 0 {
			if e.App = r.str(); e.App == app {
				r.fail("event app flagged as differing but equal to %q", app)
				return
			}
		}
		e.Type = webevent.Type(r.varint())
		e.Trigger = simtime.Time(r.varint())
		e.Target = r.int()
		e.TargetKind = webevent.NodeKind(r.varint())
		e.Work = acmp.Workload{Tmem: simtime.Duration(r.varint()), Cycles: r.varint()}
		e.ViewportY = r.float()
		e.Navigation = flags&flagNavigation != 0
		o.Event = e
	}
	o.Start = simtime.Time(r.varint())
	o.Finish = simtime.Time(r.varint())
	o.Latency = simtime.Duration(r.varint())
	o.Config = acmp.Config{Core: acmp.CoreType(r.varint()), FreqMHz: r.int()}
	o.EnergyMJ = r.float()
	o.Violated = flags&flagViolated != 0
	o.Speculative = flags&flagSpeculative != 0
}

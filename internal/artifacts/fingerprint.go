package artifacts

import (
	"hash/fnv"
	"slices"
	"strconv"

	"repro/internal/acmp"
	"repro/internal/trace"
)

// Fingerprint hashes the platform parameters and the full trace content.
// (Platform.Name, App, Seed) alone do not pin the simulation inputs: a
// caller may tweak an exported platform field without renaming it, or load
// or edit a trace whose events differ from the generated ones. Only the
// exported, pointer-free fields are hashed; the platform's unexported
// lazily-built config cache stays out of the hash.
//
// The hashed text is exactly what
//
//	fmt.Fprintf(h, "%s|%+v|%+v|%d|%d|%g|%s", p.Name, p.Little, p.Big,
//		p.DVFSLatency, p.MigrationLatency, p.IdlePowerMW, traceHash)
//
// writes, and the result is FNV-64a of it as 16 zero-padded hex digits
// ("%016x"). It is written with strconv appends instead of reflection, and
// it must never change: batch memo keys and the persistent stores addressed
// by them carry these bytes, so a different text would turn every stored
// result into a miss. TestFingerprintMatchesFmt and FuzzFingerprintText hold
// it to the fmt formula.
//
// The expensive half — walking every trace event — is memoized per
// store-generated trace (external traces, and every trace on a nil store,
// are hashed per call, see Runtime).
// The platform half is hashed fresh on every call, so a platform tweaked in
// place still changes the key and no per-platform-instance state
// accumulates, however many Platform values a caller constructs. The memo
// assumes the trace is immutable once sessions are being built from it —
// the same assumption every other shared artifact makes.
func (s *Store) Fingerprint(p *acmp.Platform, tr *trace.Trace) string {
	var traceHash string
	if e := s.artifactsOf(tr); e != nil {
		traceHash, _ = e.hash.get(func() (string, error) { return computeTraceHash(tr), nil },
			&s.fingerprintBuilds, &s.fingerprintHits)
	} else {
		traceHash = computeTraceHash(tr)
	}
	var buf [2048]byte
	h := fnv.New64a()
	h.Write(appendPlatformText(buf[:0], p, traceHash))
	return hex16(h.Sum64())
}

// computeTraceHash hashes the trace half of a fingerprint: the DOM seed and
// every event, as the text fmt.Fprintf(h, "%d|%d|", tr.DOMSeed,
// len(tr.Events)) followed by fmt.Fprintf(h, "%+v;", ev) per event writes.
// Like Fingerprint's, the text must never change.
func computeTraceHash(tr *trace.Trace) string {
	var buf [4096]byte
	h := fnv.New64a()
	b := strconv.AppendInt(buf[:0], tr.DOMSeed, 10)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(len(tr.Events)), 10)
	b = append(b, '|')
	for i := range tr.Events {
		if len(b) > len(buf)-512 {
			h.Write(b)
			b = b[:0]
		}
		b = appendEventText(b, &tr.Events[i])
		b = append(b, ';')
	}
	h.Write(b)
	return hex16(h.Sum64())
}

// appendEventText appends what fmt's %+v writes for ev.
func appendEventText(b []byte, ev *trace.Event) []byte {
	b = append(b, "{Seq:"...)
	b = strconv.AppendInt(b, int64(ev.Seq), 10)
	b = append(b, " Type:"...)
	b = append(b, ev.Type...)
	b = append(b, " TriggerUS:"...)
	b = strconv.AppendInt(b, ev.TriggerUS, 10)
	b = append(b, " Target:"...)
	b = strconv.AppendInt(b, int64(ev.Target), 10)
	b = append(b, " TargetKind:"...)
	b = strconv.AppendInt(b, int64(ev.TargetKind), 10)
	b = append(b, " TmemUS:"...)
	b = strconv.AppendInt(b, ev.TmemUS, 10)
	b = append(b, " Cycles:"...)
	b = strconv.AppendInt(b, ev.Cycles, 10)
	b = append(b, " ViewportY:"...)
	b = appendFloat(b, ev.ViewportY)
	b = append(b, " Navigation:"...)
	b = strconv.AppendBool(b, ev.Navigation)
	return append(b, '}')
}

// appendPlatformText appends what fmt.Fprintf's "%s|%+v|%+v|%d|%d|%g|%s"
// writes for the platform fields and the trace hash (see Fingerprint).
func appendPlatformText(b []byte, p *acmp.Platform, traceHash string) []byte {
	b = append(b, p.Name...)
	b = append(b, '|')
	b = appendClusterText(b, &p.Little)
	b = append(b, '|')
	b = appendClusterText(b, &p.Big)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(p.DVFSLatency), 10)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(p.MigrationLatency), 10)
	b = append(b, '|')
	b = appendFloat(b, p.IdlePowerMW)
	b = append(b, '|')
	return append(b, traceHash...)
}

// appendClusterText appends what fmt's %+v writes for cl: the core type
// through its String method, the ladder as [a b], and the power map as
// map[k:v …] in ascending key order (a nil slice or map prints empty).
func appendClusterText(b []byte, cl *acmp.Cluster) []byte {
	b = append(b, "{Core:"...)
	b = append(b, cl.Core.String()...)
	b = append(b, " FreqsMHz:["...)
	for i, f := range cl.FreqsMHz {
		if i > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendInt(b, int64(f), 10)
	}
	b = append(b, "] PowerMW:map["...)
	keys := make([]int, 0, 32)
	for k := range cl.PowerMW {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for i, k := range keys {
		if i > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendInt(b, int64(k), 10)
		b = append(b, ':')
		b = appendFloat(b, cl.PowerMW[k])
	}
	b = append(b, "] CPI:"...)
	b = appendFloat(b, cl.CPI)
	return append(b, '}')
}

// appendFloat appends f as fmt's %g and %v write a float64: the shortest
// representation, with NaN, +Inf, -Inf and -0 spelled as strconv spells
// them.
func appendFloat(b []byte, f float64) []byte {
	return strconv.AppendFloat(b, f, 'g', -1, 64)
}

// hex16 renders v as fmt's %016x does.
func hex16(v uint64) string {
	const digits = "0123456789abcdef"
	var b [16]byte
	for i := len(b) - 1; i >= 0; i-- {
		b[i] = digits[v&0xf]
		v >>= 4
	}
	return string(b[:])
}

package artifacts

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"slices"
	"testing"

	"repro/internal/acmp"
	"repro/internal/simtime"
	"repro/internal/trace"
	"repro/internal/webapp"
	"repro/internal/webevent"
)

// serializedEvent mirrors, field names and order included, the serialized
// event form traces had when the fingerprint was first computed: the trace
// hash is fmt's %+v text of it.
type serializedEvent struct {
	Seq        int
	Type       string
	TriggerUS  int64
	Target     int
	TargetKind int
	TmemUS     int64
	Cycles     int64
	ViewportY  float64
	Navigation bool
}

func serialize(ev *webevent.Event) serializedEvent {
	return serializedEvent{
		Seq:        ev.Seq,
		Type:       ev.Type.String(),
		TriggerUS:  ev.Trigger.Micros(),
		Target:     ev.Target,
		TargetKind: int(ev.TargetKind),
		TmemUS:     ev.Work.Tmem.Micros(),
		Cycles:     ev.Work.Cycles,
		ViewportY:  ev.ViewportY,
		Navigation: ev.Navigation,
	}
}

// traceHashFmt and platformTextFmt are the fmt formulas the fingerprint
// was first computed with. The key bytes must never change, so they stay
// as the reference the reflection-free encoder is held to.
func traceHashFmt(tr *trace.Trace) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%d|", tr.DOMSeed, len(tr.Events))
	for _, ev := range tr.Events {
		fmt.Fprintf(h, "%+v;", serialize(ev))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func platformTextFmt(p *acmp.Platform, traceHash string) string {
	return fmt.Sprintf("%s|%+v|%+v|%d|%d|%g|%s",
		p.Name, p.Little, p.Big, p.DVFSLatency, p.MigrationLatency, p.IdlePowerMW, traceHash)
}

func fingerprintFmt(p *acmp.Platform, tr *trace.Trace) string {
	h := fnv.New64a()
	io.WriteString(h, platformTextFmt(p, traceHashFmt(tr)))
	return fmt.Sprintf("%016x", h.Sum64())
}

// fingerprintPin is the FNV-64a digest of every fingerprint
// TestFingerprintMatchesFmt computes, captured with the fmt-based
// fingerprint before the encoder replaced it.
const fingerprintPin = 0x2dfd07ed3f6c683d

// TestFingerprintMatchesFmt holds Fingerprint to the fmt formula on real
// inputs: the 288 e2ebench pool traces (96 campaigns × 3 apps on trace
// seeds 100000–100095) plus the default training corpus (8 traces per seen
// app on corpus seed 1000), on both platforms, through the memoized path
// of store-generated traces and the per-call path of external ones. A
// digest of all those fingerprints pins the key bytes themselves.
func TestFingerprintMatchesFmt(t *testing.T) {
	store := NewStore()
	reg := webapp.Registry()
	var traces []*trace.Trace
	for j := 0; j < 96; j++ {
		for k := 0; k < 3; k++ {
			traces = append(traces, store.Trace(reg[(3*j+k)%len(reg)], 100_000+int64(j), trace.PurposeEval, trace.Options{}))
		}
	}
	traces = append(traces, store.Corpus(webapp.SeenApps(), 8, 1000, trace.PurposeTrain, trace.Options{})...)

	digest := fnv.New64a()
	for _, p := range []*acmp.Platform{acmp.Exynos5410(), acmp.TX2Parker()} {
		for i, tr := range traces {
			got := store.Fingerprint(p, tr)
			if want := fingerprintFmt(p, tr); got != want {
				t.Fatalf("%s, trace %d (%s/%d): fingerprint %s, fmt formula %s", p.Name, i, tr.App, tr.Seed, got, want)
			}
			external := *tr
			if ext := store.Fingerprint(p, &external); ext != got {
				t.Fatalf("%s, trace %d: external copy fingerprints %s, store-generated %s", p.Name, i, ext, got)
			}
			io.WriteString(digest, got)
		}
	}
	if got := digest.Sum64(); got != fingerprintPin {
		t.Errorf("fingerprint digest over %d traces × 2 platforms = %#x, want %#x", len(traces), got, fingerprintPin)
	}
}

// ladderChunk encodes one (frequency, power) pair of a fuzzed cluster.
func ladderChunk(freq int16, mw float64) []byte {
	b := binary.LittleEndian.AppendUint16(nil, uint16(freq))
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(mw))
}

// fuzzCluster decodes a cluster from fuzz input: every 10-byte chunk is an
// int16 frequency and the float64 bits of its power. Without chunks the
// ladder and the power map are empty, or nil when nilEmpty is set.
func fuzzCluster(core int, ladder []byte, nilEmpty bool, cpi float64) acmp.Cluster {
	cl := acmp.Cluster{Core: acmp.CoreType(core), CPI: cpi}
	if !nilEmpty {
		cl.FreqsMHz, cl.PowerMW = []int{}, map[int]float64{}
	}
	for ; len(ladder) >= 10; ladder = ladder[10:] {
		if cl.PowerMW == nil {
			cl.PowerMW = map[int]float64{}
		}
		f := int(int16(binary.LittleEndian.Uint16(ladder)))
		cl.FreqsMHz = append(cl.FreqsMHz, f)
		cl.PowerMW[f] = math.Float64frombits(binary.LittleEndian.Uint64(ladder[2:]))
	}
	return cl
}

// FuzzFingerprintText holds the reflection-free fingerprint text to fmt's
// on fuzzed events and platforms: NaN, ±Inf and -0 floats, negative
// numbers, strings with spaces, braces or invalid UTF-8, nil versus empty
// ladders and power maps, and out-of-range event types (named "Type(n)")
// and core types. It compares the event and platform texts byte for byte,
// then the trace hash (over enough events to flush the encoder's buffer)
// and the whole fingerprint.
func FuzzFingerprintText(f *testing.F) {
	negZero := math.Copysign(0, -1)
	exynos := slices.Concat(ladderChunk(250, 25.5), ladderChunk(600, 80), ladderChunk(1200, 610.25))
	odd := slices.Concat(ladderChunk(-5, math.NaN()), ladderChunk(900, math.Inf(1)), ladderChunk(3, math.Inf(-1)),
		ladderChunk(0, negZero), ladderChunk(900, 1e21), ladderChunk(-32768, 5e-324))
	f.Add(7, int(webevent.Click), int64(1_500_000), 42, 3, int64(120), int64(9_000_000), 0.5, false,
		"Exynos5410", "click", int(acmp.LittleCore), exynos, false, 1.6, int64(100), int64(20_000), 95.0)
	f.Add(-1, -6, int64(-7), -3, 99, int64(math.MinInt64), int64(math.MaxInt64), math.NaN(), true,
		"\xff\xfe{x y}|", "a b{c}:d]", 7, odd, false, math.Inf(1), int64(-1), int64(0), negZero)
	f.Add(0, int(webevent.Load), int64(0), 0, 0, int64(0), int64(0), negZero, false,
		"", "", -3, []byte(nil), true, math.Inf(-1), int64(0), int64(0), math.NaN())
	f.Add(1, webevent.NumTypes, int64(2), 1, 1, int64(3), int64(4), 1e-7, true,
		"tx2", "scroll", int(acmp.BigCore), []byte{1, 2, 3}, false, 1e20, int64(math.MaxInt64), int64(math.MinInt64), 123456789.125)
	f.Fuzz(func(t *testing.T, seq, typ int, trig int64, target, kind int, tmem, cycles int64, vy float64, nav bool,
		name, traceHash string, core int, ladder []byte, nilEmpty bool, cpi float64, dvfs, mig int64, idle float64) {
		ev := &webevent.Event{Seq: seq, Type: webevent.Type(typ), Trigger: simtime.Time(trig), Target: target,
			TargetKind: webevent.NodeKind(kind), Work: acmp.Workload{Tmem: simtime.Duration(tmem), Cycles: cycles},
			ViewportY: vy, Navigation: nav}
		if got, want := string(appendEventText(nil, ev)), fmt.Sprintf("%+v", serialize(ev)); got != want {
			t.Fatalf("event text\n got %q\nwant %q", got, want)
		}
		p := &acmp.Platform{
			Name:             name,
			Little:           fuzzCluster(core, ladder, nilEmpty, cpi),
			Big:              fuzzCluster(^core, ladder[len(ladder)%10:], !nilEmpty, -cpi),
			DVFSLatency:      simtime.Duration(dvfs),
			MigrationLatency: simtime.Duration(mig),
			IdlePowerMW:      idle,
		}
		if got, want := string(appendPlatformText(nil, p, traceHash)), platformTextFmt(p, traceHash); got != want {
			t.Fatalf("platform text\n got %q\nwant %q", got, want)
		}
		other := &webevent.Event{Seq: ^seq, Type: webevent.Type(^typ), Trigger: simtime.Time(-trig), Target: ^target,
			TargetKind: webevent.NodeKind(-kind), Work: acmp.Workload{Tmem: simtime.Duration(^tmem), Cycles: -cycles},
			ViewportY: -vy, Navigation: !nav}
		tr := &trace.Trace{DOMSeed: trig ^ tmem}
		for i := 0; i < 64; i++ {
			tr.Events = append(tr.Events, ev, other)
		}
		if got, want := computeTraceHash(tr), traceHashFmt(tr); got != want {
			t.Fatalf("trace hash %s, fmt formula %s", got, want)
		}
		if got, want := NewStore().Fingerprint(p, tr), fingerprintFmt(p, tr); got != want {
			t.Fatalf("fingerprint %s, fmt formula %s", got, want)
		}
	})
}

package engine

import (
	"bytes"
	"encoding/json"
	"maps"
	"math"
	"slices"
	"sync"
	"testing"

	"repro/internal/acmp"
	"repro/internal/optimizer"
	"repro/internal/simtime"
	"repro/internal/webevent"
)

// TestResultAppendJSONZeroAlloc: every golden session encodes to exactly
// json.Marshal's bytes, so stored values and results bodies are unchanged
// from the encoding/json path, and encoding it into a buffer that already
// has room allocates nothing.
func TestResultAppendJSONZeroAlloc(t *testing.T) {
	buf := make([]byte, 0, 1<<20)
	for key, r := range goldenResults(t) {
		want, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		got, err := r.AppendJSON(buf)
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("%s: AppendJSON (err %v) differs from json.Marshal:\n got %.300s\nwant %.300s", key, err, got, want)
		}
		if allocs := testing.AllocsPerRun(20, func() {
			if _, err := r.AppendJSON(buf); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("%s: AppendJSON allocates %.1f times per call", key, allocs)
		}
	}
}

// TestSealedResultEncodesLikeUnsealed: a sealed result writes its unsealed
// twin's bytes on its first call and on every later one, without an event
// memo and through one (the memo's answer buffer holds several results of
// one trace, so the first calls share events), and goroutines that encode
// sealed results at once all get those bytes. A later call copies what the
// first kept, so into a buffer with room it does not allocate. A copy of a
// sealed result by value is not sealed.
func TestSealedResultEncodesLikeUnsealed(t *testing.T) {
	plain := goldenResults(t)
	keys := slices.Sorted(maps.Keys(plain)) // app-major: one trace's results are contiguous
	want := map[string][]byte{}
	var wantRows []byte
	var memo EventMemo
	for _, k := range keys {
		b, err := plain[k].AppendJSON(nil)
		if err != nil {
			t.Fatal(err)
		}
		want[k] = b
		if wantRows, err = plain[k].AppendJSONMemo(wantRows, &memo); err != nil {
			t.Fatal(err)
		}
	}
	twins := func() map[string]*Result {
		out := map[string]*Result{}
		for k, r := range plain {
			twin := *r
			twin.Seal()
			out[k] = &twin
		}
		return out
	}

	sealed := twins()
	for call := range 2 {
		for _, k := range keys {
			if got, err := sealed[k].AppendJSON([]byte("row:")); err != nil || !bytes.Equal(got[4:], want[k]) {
				t.Fatalf("%s, call %d without a memo (err %v):\n got %.200s\nwant %.200s", k, call, err, got[4:], want[k])
			}
		}
	}
	buf := make([]byte, 0, 1<<20)
	for _, k := range keys {
		if allocs := testing.AllocsPerRun(20, func() { _, _ = sealed[k].AppendJSON(buf) }); allocs != 0 {
			t.Errorf("%s: a sealed result's later encode allocates %.1f times", k, allocs)
		}
	}
	// A copy by value is not sealed: changed, it encodes its new value.
	changed := *sealed[keys[0]]
	changed.TotalEnergyMJ++
	got, err := changed.AppendJSON(nil)
	if wantChanged, _ := json.Marshal(&changed); err != nil || !bytes.Equal(got, wantChanged) {
		t.Errorf("a changed copy of a sealed result encodes %.200s, want %.200s", got, wantChanged)
	}

	sealed = twins()
	for call := range 2 {
		var rows []byte
		memo.Reset()
		for _, k := range keys {
			var err error
			if rows, err = sealed[k].AppendJSONMemo(rows, &memo); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(rows, wantRows) {
			t.Fatalf("call %d through a memo: sealed rows differ from unsealed ones", call)
		}
	}

	sealed = twins()
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var m EventMemo
			var rows []byte
			for _, k := range keys {
				n := len(rows)
				var err error
				if g%2 == 0 {
					rows, err = sealed[k].AppendJSONMemo(rows, &m)
				} else {
					rows, err = sealed[k].AppendJSON(rows)
				}
				if err != nil || !bytes.Equal(rows[n:], want[k]) {
					t.Errorf("goroutine %d, %s: concurrent sealed encode differs (err %v)", g, k, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// FuzzResultJSON builds a result from fuzzed ints, floats and strings:
// AppendJSON must write json.Marshal's bytes, fail exactly when it fails
// (NaN and ±Inf) with the same error, and leave the buffer unextended on
// failure. The seed corpus in testdata/fuzz/FuzzResultJSON covers plain
// values, HTML-unsafe and invalid-UTF-8 strings, the 'f'/'e' float
// boundaries, a subnormal, negative zero and the unsupported floats.
//
// Then a sequence of results built from variants of the fuzzed event is
// encoded into one buffer through one EventMemo and, result by result,
// must give the bytes and errors of plain AppendJSON calls: the event
// shared by pointer and as a by-value copy (the shard-decode form), the
// same Seq with other content (another trace), ViewportY +0 against -0, a
// nil event, Seqs outside the memo's range, and a result that fails after
// its event was recorded. A sealed twin of each result, encoded twice
// through a memo of its own, must write those bytes on both calls.
func FuzzResultJSON(f *testing.F) {
	f.Fuzz(func(t *testing.T, sched, app, evApp string, seq, tick, cycles int64, energy, viewport, rate float64, nav bool) {
		ev := &webevent.Event{
			Seq: int(seq), App: evApp, Type: webevent.Type(seq), Trigger: simtime.Time(tick),
			Target: int(cycles), TargetKind: webevent.NodeKind(seq),
			Work:      acmp.Workload{Tmem: simtime.Duration(tick), Cycles: cycles},
			ViewportY: viewport, Navigation: nav,
		}
		r := &Result{
			Scheduler: sched, App: app,
			Outcomes: []Outcome{
				{Event: ev, Start: simtime.Time(tick), Finish: simtime.Time(seq), Latency: simtime.Duration(cycles),
					Violated: nav, Config: acmp.Config{Core: acmp.CoreType(seq), FreqMHz: int(cycles)}, EnergyMJ: energy},
				{Speculative: !nav, EnergyMJ: viewport},
			},
			BusyEnergyMJ: energy, IdleEnergyMJ: viewport, WastedEnergyMJ: rate, TotalEnergyMJ: -energy,
			Violations: int(seq), ViolationRate: rate, MispredictWaste: simtime.Duration(tick),
			Duration: simtime.Duration(cycles),
			Solver:   optimizer.SolverCounts{Solves: int(seq), Nodes: cycles, BudgetAborts: int(tick)},
		}
		if nav {
			r.PFBSamples = []PFBSample{{Seq: int(seq), Size: int(cycles)}}
		}
		want, werr := json.Marshal(r)
		prefix := []byte("row:")
		got, gerr := r.AppendJSON(prefix)
		switch {
		case (werr == nil) != (gerr == nil):
			t.Fatalf("json.Marshal err %v, AppendJSON err %v", werr, gerr)
		case werr != nil:
			if gerr.Error() != werr.Error() || !bytes.Equal(got, prefix) {
				t.Fatalf("failure differs: err %q (want %q), buffer %q", gerr, werr, got)
			}
		case !bytes.Equal(got[len(prefix):], want) || !bytes.Equal(got[:len(prefix)], prefix):
			t.Fatalf("AppendJSON differs from json.Marshal:\n got %s\nwant %s", got[len(prefix):], want)
		}

		copied, other, zero, negZero, low, high, edge, huge := *ev, *ev, *ev, *ev, *ev, *ev, *ev, *ev
		other.Work.Cycles++
		zero.ViewportY, negZero.ViewportY = 0, math.Copysign(0, -1)
		low.Seq, high.Seq, edge.Seq, huge.Seq = -1, maxMemoEvents-1, maxMemoEvents, math.MaxInt
		// with replays e twice around an event-less outcome; a failing
		// result has a NaN energy after its first event. The nil-event
		// result after the first failure overwrites the bytes that failure
		// left past the buffer's end, where the memo must not point.
		with := func(e *webevent.Event, fail bool) *Result {
			res := *r
			o := r.Outcomes[0]
			o.Event = e
			res.Outcomes = []Outcome{o, r.Outcomes[1], o}
			if fail {
				res.Outcomes[0].EnergyMJ = math.NaN()
			}
			return &res
		}
		steps := []*Result{
			r, with(ev, false), with(&copied, false), with(&other, false), with(ev, false),
			with(&zero, false), with(&negZero, false), with(&zero, false),
			with(&other, true), with(nil, false), with(&other, false), with(&copied, true), with(ev, false),
			with(&low, false), with(&low, false), with(&high, false), with(&high, false),
			with(&edge, false), with(&edge, false), with(&huge, false), with(&huge, false),
		}
		// Each result's sealed twin goes through a memo of its own, twice:
		// the first call encodes, the second copies what the first kept.
		var memo, sealedMemo EventMemo
		shared, plain, twice := []byte("rows:"), []byte("rows:"), []byte("rows:")
		for i, res := range steps {
			var serr, perr error
			n := len(plain)
			shared, serr = res.AppendJSONMemo(shared, &memo)
			plain, perr = res.AppendJSON(plain)
			if (serr == nil) != (perr == nil) || !bytes.Equal(shared, plain) {
				t.Fatalf("result %d: through the memo (err %v)\n%s\nwithout it (err %v)\n%s", i, serr, shared, perr, plain)
			}
			sealed := *res
			sealed.Seal()
			for call := range 2 {
				m := len(twice)
				var err error
				if twice, err = sealed.AppendJSONMemo(twice, &sealedMemo); (err == nil) != (perr == nil) || !bytes.Equal(twice[m:], plain[n:]) {
					t.Fatalf("result %d, sealed call %d (err %v): %s\nunsealed (err %v): %s", i, call, err, twice[m:], perr, plain[n:])
				}
			}
		}
	})
}

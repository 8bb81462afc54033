package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/maphash"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/store"
)

// fillDistinct sets every field reachable from v to a distinct non-zero
// value: pointers get a fresh target, slices two elements, bools true. A
// kind it does not know (a map, an interface, an unexported field) fails the
// test, so a new field of such a kind cannot slip past the codec unseen.
// The one exception is engine.Result's seal, which is not part of a
// result's value and never travels.
func fillDistinct(t *testing.T, v reflect.Value, next *int64) {
	t.Helper()
	if !v.CanSet() {
		t.Fatalf("cannot set %s: the frame codec cannot carry it either", v.Type())
	}
	*next++
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type() == resultType && !v.Type().Field(i).IsExported() {
				continue
			}
			fillDistinct(t, v.Field(i), next)
		}
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fillDistinct(t, v.Elem(), next)
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < 2; i++ {
			fillDistinct(t, v.Index(i), next)
		}
	case reflect.String:
		v.SetString("s" + strconv.FormatInt(*next, 10))
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(*next)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(float64(*next) + 0.25)
	default:
		t.Fatalf("fillDistinct: unhandled kind %s (%s)", v.Kind(), v.Type())
	}
}

var resultType = reflect.TypeFor[engine.Result]()

// onWire returns resp with each result replaced by a new, unsealed result
// holding its exported fields: what the frame carries, without the seal the
// coordinator puts on the results it decodes.
func onWire(resp ShardResponse) ShardResponse {
	if resp.Results == nil {
		return resp
	}
	results := make([]*engine.Result, len(resp.Results))
	for i, r := range resp.Results {
		if r == nil {
			continue
		}
		results[i] = new(engine.Result)
		src, dst := reflect.ValueOf(r).Elem(), reflect.ValueOf(results[i]).Elem()
		for f := range src.NumField() {
			if resultType.Field(f).IsExported() {
				dst.Field(f).Set(src.Field(f))
			}
		}
	}
	resp.Results = results
	return resp
}

// codecResponse is a response exercising every shape the frame has: a
// fully populated result, nil entries, an event sharing its result's app,
// outcomes without an event, empty non-nil slices, a zero result, and
// negative and signed-zero values.
func codecResponse(t *testing.T) ShardResponse {
	t.Helper()
	var next int64
	full := new(engine.Result)
	fillDistinct(t, reflect.ValueOf(full).Elem(), &next)
	var resp ShardResponse
	fillDistinct(t, reflect.ValueOf(&resp.Stats).Elem(), &next)
	fillDistinct(t, reflect.ValueOf(&resp.Spans).Elem(), &next)
	resp.Error = "session 3: boom"

	ev := *full.Outcomes[0].Event
	ev.App, ev.Navigation, ev.Trigger = "cnn", false, -3
	interned := &engine.Result{
		Scheduler: "PES", App: "cnn",
		Outcomes: []engine.Outcome{
			{Event: &ev, Start: -5, EnergyMJ: math.Copysign(0, -1)},
			{Start: 7, Finish: 9, Latency: -1},
		},
		PFBSamples:    []engine.PFBSample{},
		ViolationRate: -math.MaxFloat64,
		Solver:        full.Solver,
	}

	resp.Results = []*engine.Result{full, nil, interned, {Outcomes: []engine.Outcome{}}, {}, nil}
	return resp
}

// TestFrameRoundTripsEveryResultField is the field-coverage guard: a result
// with every field set to a distinct value, plus nil entries and the
// edge shapes above, must survive the frame exactly. A field added to
// engine.Result (or anything it nests) that the codec does not carry fails
// here instead of silently vanishing on the cluster path.
func TestFrameRoundTripsEveryResultField(t *testing.T) {
	resp := codecResponse(t)
	frame, err := appendShardResponse(nil, resp, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeShardResponse(frame, newResultInterner())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(onWire(got), resp) {
		t.Fatalf("frame round trip lost data:\n got %+v\nwant %+v", got, resp)
	}
	if math.Signbit(got.Results[2].Outcomes[0].EnergyMJ) != true {
		t.Error("negative zero lost its sign")
	}
	again, err := appendShardResponse(nil, got, nil)
	if err != nil || !bytes.Equal(again, frame) {
		t.Fatalf("re-encoding a decoded frame changed its bytes (err %v)", err)
	}
}

// firstRecord returns where the first result record's length prefix
// starts and ends in a frame whose first result is present, and the
// length it holds.
func firstRecord(t *testing.T, frame []byte) (at, end int, length uint64) {
	t.Helper()
	at = len(frameMagic) + 1
	_, n := binary.Uvarint(frame[at:])
	if at += n; frame[at] != 1 {
		t.Fatal("the frame's first result is nil")
	}
	at++
	length, n = binary.Uvarint(frame[at:])
	return at, at + n, length
}

// withRecordLength returns a copy of frame whose first record's length
// prefix says length, and whose record is followed by pad.
func withRecordLength(t *testing.T, frame []byte, length uint64, pad ...byte) []byte {
	at, end, n := firstRecord(t, frame)
	out := binary.AppendUvarint(bytes.Clone(frame[:at]), length)
	out = append(append(out, frame[end:end+int(n)]...), pad...)
	return append(out, frame[end+int(n):]...)
}

// TestFrameRejectsHostileBytes covers the decoder's refusals: every prefix
// of a valid frame, wrong magic and version, counts larger than the input,
// non-minimal varints, unknown flag bits, a record length that runs past
// the frame or that its record does not consume exactly, and trailing
// bytes all fail with an error, never a panic or an oversized allocation.
func TestFrameRejectsHostileBytes(t *testing.T) {
	frame, err := appendShardResponse(nil, codecResponse(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(frame); n++ {
		if _, err := decodeShardResponse(frame[:n], newResultInterner()); err == nil {
			t.Fatalf("accepted a frame truncated to %d of %d bytes", n, len(frame))
		}
	}
	_, _, length := firstRecord(t, frame)
	header := append(frameMagic[:], frameVersion)
	bad := map[string][]byte{
		"record past the end": withRecordLength(t, frame, uint64(len(frame))),
		"record short":        withRecordLength(t, frame, length-1),
		// A record padded by one byte that its length covers: only the
		// record's own end can tell.
		"record long":       withRecordLength(t, frame, length+1, 0),
		"empty record":      append(bytes.Clone(header), 0x02, 0x01, 0x00, 0x01, 0x02, '{', '}'),
		"wrong magic":       append([]byte("JSON"), frame[4:]...),
		"wrong version":     append(append(frameMagic[:], frameVersion+1), frame[5:]...),
		"trailing bytes":    append(bytes.Clone(frame), 0),
		"huge result count": append(bytes.Clone(header), 0xff, 0xff, 0xff, 0xff, 0x0f),
		"non-minimal count": append(bytes.Clone(header), 0x81, 0x00, 0x00, 0x02, '{', '}'),
		"bad presence":      append(bytes.Clone(header), 0x02, 0x07),
		"unknown flags": append(bytes.Clone(header), 0x02, 0x01, 0x11, 0x00, 0x00, 0x02,
			0x80, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
		"non-canonical tail": append(bytes.Clone(header), 0x01, 0x0d, '{', '"', 's', 't', 'a', 't', 's', '"', ':', '{', '}', ' ', '}'),
	}
	for name, b := range bad {
		if _, err := decodeShardResponse(b, newResultInterner()); !errors.Is(err, errFrame) {
			t.Errorf("%s: err = %v, want a malformed-frame error", name, err)
		}
	}
}

// TestShardTailCarriesOnlyRunnerCounters: a worker with an artifact store
// and a persistent store attached answers a shard whose tail holds neither
// snapshot — the coordinator sums only the runner's own counters — while
// the worker's own Stats (its /healthz body) still carries both.
func TestShardTailCarriesOnlyRunnerCounters(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster tests train a predictor")
	}
	ps, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer ps.Close()
	cfg := smallConfig()
	cfg.Store = ps
	w, err := NewWorker(cfg)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := w.RunShard("", ShardRequest{Sessions: testSpecs()[:5]})
	if err != nil {
		t.Fatal(err)
	}
	if full := w.Stats(); full.Artifacts == nil || full.Store == nil {
		t.Fatalf("worker stats lack a snapshot: %+v", full)
	}
	if resp.Stats.Sessions != 5 || resp.Stats.UniqueRuns != 5 {
		t.Errorf("shard stats = %+v, want 5 sessions, 5 unique runs", resp.Stats)
	}
	frame, err := appendShardResponse(nil, resp, nil)
	if err != nil {
		t.Fatal(err)
	}
	tail, err := json.Marshal(frameTail{Error: resp.Error, Stats: resp.Stats, Spans: resp.Spans})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasSuffix(frame, tail) {
		t.Fatalf("frame does not end with its tail %s", tail)
	}
	for _, key := range []string{`"Artifacts"`, `"Store"`} {
		if bytes.Contains(tail, []byte(key)) {
			t.Errorf("shard tail carries %s: %s", key, tail)
		}
	}
}

// TestRecordLengthWidths: a record's length prefix is minimal, so records
// whose lengths sit on either side of a uvarint width (127/128,
// 16383/16384) round-trip at every outcome count.
func TestRecordLengthWidths(t *testing.T) {
	record := func(res *engine.Result) (frame []byte, length int) {
		frame, err := appendShardResponse(nil, ShardResponse{Results: []*engine.Result{res, nil, res}}, nil)
		if err != nil {
			t.Fatal(err)
		}
		_, _, n := firstRecord(t, frame)
		return frame, int(n)
	}
	wants := []int{127, 128, 16383, 16384, 40000}
	hit := map[int]bool{}
	for _, outcomes := range []int{0, 1, 300, 800} {
		_, base := record(&engine.Result{Outcomes: make([]engine.Outcome, outcomes)})
		for _, want := range wants {
			// An App of n bytes adds n plus its own length's extra width.
			n := max(0, want-base-2)
			for ; n <= want; n++ {
				if base+n+uvarintLen(uint64(n))-1 >= want {
					break
				}
			}
			res := &engine.Result{App: strings.Repeat("a", n), Outcomes: make([]engine.Outcome, outcomes)}
			frame, length := record(res)
			if length != want {
				continue // no App length lands exactly on it at this count
			}
			got, err := decodeShardResponse(frame, newResultInterner())
			if err != nil {
				t.Fatalf("%d outcomes, %d-byte record: %v", outcomes, length, err)
			}
			if got.Results[0] != got.Results[2] || !reflect.DeepEqual(onWire(got).Results[0], res) {
				t.Fatalf("%d outcomes, %d-byte record: round trip lost data", outcomes, length)
			}
			hit[want] = true
		}
	}
	for _, want := range wants {
		if !hit[want] {
			t.Errorf("no record came out at exactly %d bytes", want)
		}
	}
}

// TestInternedFramesShareResults: the production transport decodes a frame
// it has read before into the very same result pointers, sealed, so they
// encode once; a frame that differs in one byte of one result decodes only
// that result again, and every other pointer is still shared.
func TestInternedFramesShareResults(t *testing.T) {
	resp := codecResponse(t)
	frame, err := appendShardResponse(nil, resp, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		rw.Header().Set("Content-Type", frameContentType)
		_, _ = rw.Write(frame)
	}))
	defer ts.Close()
	tr := NewHTTPTransport()
	req := ShardRequest{Sessions: make([]SessionSpec, len(resp.Results))}
	first, err := tr.RunShard(context.Background(), ts.URL, req)
	if err != nil {
		t.Fatal(err)
	}
	second, err := tr.RunShard(context.Background(), ts.URL, req)
	if err != nil {
		t.Fatal(err)
	}
	for i := range first.Results {
		if first.Results[i] != second.Results[i] {
			t.Errorf("result %d: two identical frames decoded to two pointers", i)
		}
	}
	if !reflect.DeepEqual(onWire(second), resp) {
		t.Fatal("an interned frame lost data")
	}
	// A sealed result keeps its first encode's bytes: a change made behind
	// the seal's back does not show.
	want, err := first.Results[2].AppendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	energy := first.Results[2].TotalEnergyMJ
	first.Results[2].TotalEnergyMJ++
	if got, _ := second.Results[2].AppendJSON(nil); !bytes.Equal(got, want) {
		t.Error("an interned result is not sealed")
	}
	first.Results[2].TotalEnergyMJ = energy

	// Flip the lowest bit of one float of result 2: one byte of the frame.
	results := tr.(*httpTransport).results
	held := results.cache.Len()
	changed := resp
	changed.Results = slices.Clone(resp.Results)
	changed.Results[2] = onWire(ShardResponse{Results: resp.Results[2:3]}).Results[0]
	changed.Results[2].BusyEnergyMJ = math.Float64frombits(math.Float64bits(changed.Results[2].BusyEnergyMJ) ^ 1)
	other, err := appendShardResponse(nil, changed, nil)
	if err != nil {
		t.Fatal(err)
	}
	if diff := countDiff(frame, other); diff != 1 {
		t.Fatalf("the changed frame differs in %d bytes, want 1", diff)
	}
	third, err := decodeShardResponse(other, results)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range third.Results {
		if shared := res == first.Results[i]; shared == (i == 2 && res != nil) {
			t.Errorf("result %d: shared %v after a change to result 2 only", i, shared)
		}
	}
	if got := results.cache.Len(); got != held+1 {
		t.Errorf("the interner holds %d results after the changed frame, want %d", got, held+1)
	}
}

// countDiff counts the positions at which two equally long byte strings
// differ; unequal lengths count as -1.
func countDiff(a, b []byte) int {
	if len(a) != len(b) {
		return -1
	}
	n := 0
	for i := range a {
		if a[i] != b[i] {
			n++
		}
	}
	return n
}

// TestResultInternerBounded: however many distinct results pass through
// it, the interner holds at most maxInternedResults of them, dropping the
// least recently used, and a result it dropped decodes afresh.
func TestResultInternerBounded(t *testing.T) {
	results := newResultInterner()
	var firstPtr *engine.Result
	var frame0 []byte
	for i := range maxInternedResults + 44 {
		frame, err := appendShardResponse(nil, ShardResponse{Results: []*engine.Result{{App: "cnn", TotalEnergyMJ: float64(i)}}}, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := decodeShardResponse(frame, results)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			firstPtr, frame0 = resp.Results[0], frame
		}
		if n := results.cache.Len(); n > maxInternedResults {
			t.Fatalf("after %d results the interner holds %d, more than %d", i+1, n, maxInternedResults)
		}
	}
	if n := results.cache.Len(); n != maxInternedResults {
		t.Errorf("the interner holds %d results, want %d", n, maxInternedResults)
	}
	resp, err := decodeShardResponse(frame0, results)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Results[0] == firstPtr || resp.Results[0].TotalEnergyMJ != 0 {
		t.Error("the least recently used result was not dropped, or decoded wrongly")
	}
}

// TestInternerCollisionDecodesUninterned: the interner trusts no hash. With
// every record filed under one constant hash, a second, different record
// still decodes to its own result, not interned (so it is neither shared
// nor sealed), while the first record keeps its interned result; a failing
// record is refused whichever record holds the slot.
func TestInternerCollisionDecodesUninterned(t *testing.T) {
	results := newResultInterner()
	results.hash = func(maphash.Seed, []byte) uint64 { return 7 }
	frameOf := func(res *engine.Result) []byte {
		frame, err := appendShardResponse(nil, ShardResponse{Results: []*engine.Result{res}}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return frame
	}
	a, b := &engine.Result{App: "cnn", TotalEnergyMJ: 1}, &engine.Result{App: "cnn", TotalEnergyMJ: 2}
	decode := func(frame []byte) *engine.Result {
		t.Helper()
		resp, err := decodeShardResponse(frame, results)
		if err != nil {
			t.Fatal(err)
		}
		return resp.Results[0]
	}
	first := decode(frameOf(a))
	other, again := decode(frameOf(b)), decode(frameOf(b))
	if !reflect.DeepEqual(onWire(ShardResponse{Results: []*engine.Result{other}}).Results[0], b) {
		t.Fatal("a colliding record decoded to another result")
	}
	if other == again || other == first {
		t.Error("a colliding record was interned")
	}
	want, _ := other.AppendJSON(nil)
	other.TotalEnergyMJ++
	if got, _ := other.AppendJSON(nil); bytes.Equal(got, want) {
		t.Error("a colliding record's result is sealed")
	}
	if decode(frameOf(a)) != first {
		t.Error("the record that holds the slot lost its interned result")
	}
	if results.cache.Len() != 1 {
		t.Errorf("the interner holds %d entries under one hash, want 1", results.cache.Len())
	}
	// A record padded past its result fails, whether or not its hash is
	// filed under another record.
	bad := withRecordLength(t, frameOf(a), uint64(len(frameOf(a)))-9, 0)
	for range 2 {
		if _, err := decodeShardResponse(bad, results); !errors.Is(err, errFrame) {
			t.Errorf("a colliding malformed record: err = %v, want a malformed-frame error", err)
		}
	}
}

// cacheTestResults returns n distinct results, some with outcomes.
func cacheTestResults(n int) []*engine.Result {
	out := make([]*engine.Result, n)
	for i := range out {
		out[i] = &engine.Result{Scheduler: "PES", App: "cnn", TotalEnergyMJ: float64(i),
			Outcomes: make([]engine.Outcome, i%4), PFBSamples: []engine.PFBSample{{Seq: i, Size: 2}}}
	}
	return out
}

// checkFrame encodes resp through records and checks that the frame equals
// a fresh encode byte for byte and decodes back to resp.
func checkFrame(t *testing.T, name string, resp ShardResponse, records *recordCache) {
	t.Helper()
	want, err := appendShardResponse(nil, resp, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := appendShardResponse(nil, resp, records)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: the frame differs from a fresh encode (%d bytes against %d)", name, len(got), len(want))
	}
	back, err := decodeShardResponse(got, newResultInterner())
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !reflect.DeepEqual(onWire(back), resp) {
		t.Fatalf("%s: the frame does not decode to its response", name)
	}
}

// TestWarmShardFrameMatchesEncoder: a shard whose records the worker kept
// is the same frame, byte for byte, as one encoded afresh: cold and warm,
// with nil results, a nil and an empty result list, a failed session, a
// mix of kept and new records, and after the cache dropped records at its
// bound.
func TestWarmShardFrameMatchesEncoder(t *testing.T) {
	records := newRecordCache()
	codec := codecResponse(t)
	checkFrame(t, "cold", codec, records)
	held := records.cache.Len()
	checkFrame(t, "warm", codec, records)
	if records.cache.Len() != held || held != 4 {
		t.Errorf("the cache holds %d then %d records, want 4 both times", held, records.cache.Len())
	}

	results := cacheTestResults(maxInternedResults + 30)
	checkFrame(t, "nil results", ShardResponse{Results: []*engine.Result{nil, results[0], nil}}, records)
	checkFrame(t, "no result list", ShardResponse{Stats: codec.Stats}, records)
	checkFrame(t, "empty result list", ShardResponse{Results: []*engine.Result{}}, records)
	checkFrame(t, "failed session", ShardResponse{
		Results: []*engine.Result{results[0], nil, results[1]},
		Error:   "session 1: boom",
		Stats:   codec.Stats,
	}, records)
	checkFrame(t, "mixed", ShardResponse{Results: append(slices.Clone(results[:5]), codec.Results...)}, records)

	// Past the bound: the first results' records are dropped and written
	// again, next to records still kept.
	for i := 0; i < len(results); i += 15 {
		checkFrame(t, "filling", ShardResponse{Results: results[i:min(i+15, len(results))]}, records)
	}
	if records.cache.Evictions() == 0 {
		t.Fatal("the cache never reached its bound")
	}
	mixed := append(slices.Clone(results[:3]), results[len(results)-3:]...)
	checkFrame(t, "after eviction", ShardResponse{Results: mixed}, records)
	checkFrame(t, "after eviction, warm", ShardResponse{Results: mixed}, records)
}

// TestRecordCacheBounded: however many results a worker sends, it keeps at
// most maxInternedResults records, dropping the least recently used; a
// dropped result's record is written again on its next shard.
func TestRecordCacheBounded(t *testing.T) {
	records := newRecordCache()
	results := cacheTestResults(maxInternedResults + 44)
	for _, res := range results {
		if _, err := appendShardResponse(nil, ShardResponse{Results: []*engine.Result{res}}, records); err != nil {
			t.Fatal(err)
		}
		if n := records.cache.Len(); n > maxInternedResults {
			t.Fatalf("the cache holds %d records, more than %d", n, maxInternedResults)
		}
	}
	if n, e := records.cache.Len(), records.cache.Evictions(); n != maxInternedResults || e != 44 {
		t.Errorf("the cache holds %d records after %d evictions, want %d and 44", n, e, maxInternedResults)
	}
	// Kept ones first: asking for a dropped one puts it back.
	for _, c := range []struct {
		i    int
		kept bool
	}{{len(results) - 1, true}, {44, true}, {0, false}, {43, false}} {
		_, hit, _ := records.cache.Get(results[c.i], func() ([]byte, error) { return nil, nil })
		if hit != c.kept {
			t.Errorf("result %d: kept %v, want %v", c.i, hit, c.kept)
		}
	}
}

// TestConcurrentShardsShareRecords: shards encoded at once through one
// cache, sharing results, each get the frame a fresh encode writes (run it
// under -race).
func TestConcurrentShardsShareRecords(t *testing.T) {
	records := newRecordCache()
	results := cacheTestResults(40)
	shards := []ShardResponse{{Results: results[:30]}, {Results: results[10:]}}
	want := make([][]byte, len(shards))
	for i, resp := range shards {
		var err error
		if want[i], err = appendShardResponse(nil, resp, nil); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 50 {
				got, err := appendShardResponse(nil, shards[g%2], records)
				if err != nil || !bytes.Equal(got, want[g%2]) {
					t.Errorf("goroutine %d: the frame differs from a fresh encode (err %v)", g, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := records.cache.Len(); n != len(results) {
		t.Errorf("the cache holds %d records, want %d", n, len(results))
	}
}

// warmShardEncodeAllocs is what encoding a warm shard allocates: the
// frame and its JSON tail, which encoding/json takes boxed and returns in
// a buffer of its own.
const warmShardEncodeAllocs = 3

// TestWarmShardEncodeSteadyStateAlloc: a worker's frame for a warm shard,
// whose records it kept, allocates no more than warmShardEncodeAllocs.
func TestWarmShardEncodeSteadyStateAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not repeatable under -race")
	}
	resp := warmShard(t)
	records := newRecordCache()
	if _, err := appendShardResponse(nil, resp, records); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() { _, _ = appendShardResponse(nil, resp, records) })
	t.Logf("%.1f allocations per warm shard encode", allocs)
	if allocs > warmShardEncodeAllocs {
		t.Errorf("a warm shard encode allocates %.1f times, more than %d", allocs, warmShardEncodeAllocs)
	}
}

// FuzzDecodeShardResponse feeds arbitrary bytes to the decoder: it must
// never panic, and any frame it accepts must re-encode to the same bytes.
// Each accepted frame is decoded twice through one interner: the second
// decode must return the first one's result pointers and re-encode to the
// same bytes too. The seed corpus lives in
// testdata/fuzz/FuzzDecodeShardResponse: "two-sessions" is a real traced
// two-session worker response (Ondemand on cnn) in the current frame
// version; "truncated" is its first half, "trailing-bytes" appends 0x00
// 0x01, "wrong-magic" replaces the magic with "PESX", "huge-count" is the
// header followed by a 2^32-1 result count, and "length-past-end" and
// "length-short" set its first record's length prefix to the frame's
// length and to one byte under the record's. A frame version bump
// re-encodes "two-sessions" (decode it with the old decoder, encode with
// the new encoder) and re-derives the rest.
func FuzzDecodeShardResponse(f *testing.F) {
	f.Fuzz(func(t *testing.T, frame []byte) {
		results := newResultInterner()
		resp, err := decodeShardResponse(frame, results)
		if err != nil {
			return
		}
		again, err := appendShardResponse(nil, resp, nil)
		if err != nil {
			t.Fatalf("accepted frame does not re-encode: %v", err)
		}
		if !bytes.Equal(again, frame) {
			t.Fatalf("accepted frame re-encodes differently:\n in %x\nout %x", frame, again)
		}
		second, err := decodeShardResponse(frame, results)
		if err != nil {
			t.Fatalf("accepted frame fails its second decode: %v", err)
		}
		for i, res := range second.Results {
			if res != resp.Results[i] {
				t.Fatalf("result %d: the second decode returned another pointer", i)
			}
		}
		if again, err = appendShardResponse(nil, second, nil); err != nil || !bytes.Equal(again, frame) {
			t.Fatalf("interned frame re-encodes differently (err %v)", err)
		}
	})
}

// TestFuzzSeedIsCurrentFrame: the corpus's valid seed decodes under this
// build's frame version, so the fuzzer starts from inputs that reach the
// result decoder instead of stopping at the version byte.
func TestFuzzSeedIsCurrentFrame(t *testing.T) {
	raw, err := os.ReadFile("testdata/fuzz/FuzzDecodeShardResponse/two-sessions")
	if err != nil {
		t.Fatal(err)
	}
	_, lit, _ := strings.Cut(strings.TrimSpace(string(raw)), "\n")
	frame, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lit, "[]byte("), ")"))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := decodeShardResponse([]byte(frame), newResultInterner())
	if err != nil {
		t.Fatalf("seed two-sessions does not decode: %v", err)
	}
	if len(resp.Results) != 2 || resp.Results[0] == nil || resp.Results[1] == nil {
		t.Fatalf("seed two-sessions decodes to %d results, want 2", len(resp.Results))
	}
}

// postShard sends a raw shard request with the given frame-version header
// ("" sends none) and returns the status and the worker's error message.
func postShard(t *testing.T, url, version, body string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/v1/shards", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if version != "" {
		req.Header.Set(frameVersionHeader, version)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var se shardError
	_ = json.NewDecoder(resp.Body).Decode(&se)
	return resp.StatusCode, se.Error
}

// TestWorkerRejectsFrameVersionSkew: a coordinator on another frame version,
// or one from before the frame, gets a 400 naming both versions — a client
// fault, never a worker fault that would spill the campaign locally. The
// worker rejects before it reads the body, so no harness is needed.
func TestWorkerRejectsFrameVersionSkew(t *testing.T) {
	ts := httptest.NewServer((&Worker{}).Handler())
	defer ts.Close()
	prev, cur := strconv.Itoa(frameVersion-1), "v"+strconv.Itoa(frameVersion)
	for version, wants := range map[string][]string{
		prev: {"frame version mismatch", "v" + prev, cur},
		"":   {"frame version mismatch", "JSON", cur},
	} {
		code, msg := postShard(t, ts.URL, version, `{"sessions":[]}`)
		if code != http.StatusBadRequest {
			t.Errorf("version %q: status %d, want 400", version, code)
		}
		for _, want := range wants {
			if !strings.Contains(msg, want) {
				t.Errorf("version %q: error %q does not mention %q", version, msg, want)
			}
		}
	}
}

// TestCoordinatorClassifiesFrameFaults: a worker that answers JSON (a build
// from before the frame) is a client fault naming the version; a truncated,
// garbled or oversized frame is a worker fault.
func TestCoordinatorClassifiesFrameFaults(t *testing.T) {
	frame, err := appendShardResponse(nil, ShardResponse{Results: make([]*engine.Result, 1)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	answer := func(contentType string, body []byte) *httptest.Server {
		return httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			rw.Header().Set("Content-Type", contentType)
			_, _ = rw.Write(body)
		}))
	}
	req := ShardRequest{Sessions: make([]SessionSpec, 1)}

	ts := answer("application/json", []byte(`{"results":[null],"stats":{}}`))
	_, err = NewHTTPTransport().RunShard(context.Background(), ts.URL, req)
	ts.Close()
	if !IsClientFault(err) || !strings.Contains(err.Error(), "frame version mismatch") {
		t.Errorf("JSON answer: err = %v, want a frame-version client fault", err)
	}

	for name, body := range map[string][]byte{
		"truncated": frame[:len(frame)-1],
		"garbled":   []byte("not a frame"),
	} {
		ts := answer(frameContentType, body)
		_, err := NewHTTPTransport().RunShard(context.Background(), ts.URL, req)
		ts.Close()
		if err == nil || IsClientFault(err) {
			t.Errorf("%s frame: err = %v, want a worker fault", name, err)
		}
	}

	ts = answer(frameContentType, frame)
	defer ts.Close()
	if resp, err := NewHTTPTransport().RunShard(context.Background(), ts.URL, req); err != nil || len(resp.Results) != 1 {
		t.Fatalf("valid frame: resp %+v, err %v", resp, err)
	}
	capped := &httpTransport{client: &http.Client{}, maxResponse: int64(len(frame)) - 1, results: newResultInterner()}
	if _, err := capped.RunShard(context.Background(), ts.URL, req); err == nil || IsClientFault(err) ||
		!strings.Contains(err.Error(), "cap") {
		t.Errorf("oversized response: err = %v, want a worker fault naming the cap", err)
	}
}

// TestWorkerShardRequestBodyLimit: a shard request body over the limit is
// answered 413 before any of it is decoded.
func TestWorkerShardRequestBodyLimit(t *testing.T) {
	ts := httptest.NewServer((&Worker{}).Handler())
	defer ts.Close()
	body := `{"sessions":[` + strings.Repeat(`{"app":"cnn"},`, maxShardRequestBytes/14) + `{}]}`
	code, msg := postShard(t, ts.URL, strconv.Itoa(frameVersion), body)
	if code != http.StatusRequestEntityTooLarge {
		t.Errorf("status %d (%s), want 413", code, msg)
	}
}

// warmShard returns a worker's answer to a warm 15-session shard.
func warmShard(tb testing.TB) ShardResponse {
	w := newTestWorker(tb)
	req := ShardRequest{Sessions: testSpecs()[:15]}
	if _, err := w.RunShard("", req); err != nil {
		tb.Fatal(err)
	}
	resp, err := w.RunShard("bench", req)
	if err != nil {
		tb.Fatal(err)
	}
	return resp
}

// BenchmarkShardResponseCodec times the frame against the JSON encoding it
// replaced, on a warm 15-session shard: frame/encode writes every record
// with no cache, frame/encode-cold writes and keeps them in a fresh cache
// (a worker's first answer), and frame/encode-warm copies the records a
// worker kept for the shard's results.
func BenchmarkShardResponseCodec(b *testing.B) {
	resp := warmShard(b)
	frame, err := appendShardResponse(nil, resp, nil)
	if err != nil {
		b.Fatal(err)
	}
	js, err := json.Marshal(resp)
	if err != nil {
		b.Fatal(err)
	}
	b.Logf("frame %d bytes, JSON %d bytes", len(frame), len(js))
	b.Run("frame/encode", func(b *testing.B) {
		for b.Loop() {
			_, _ = appendShardResponse(nil, resp, nil)
		}
	})
	b.Run("frame/encode-cold", func(b *testing.B) {
		for b.Loop() {
			_, _ = appendShardResponse(nil, resp, newRecordCache())
		}
	})
	b.Run("frame/encode-warm", func(b *testing.B) {
		records := newRecordCache()
		if _, err := appendShardResponse(nil, resp, records); err != nil {
			b.Fatal(err)
		}
		for b.Loop() {
			_, _ = appendShardResponse(nil, resp, records)
		}
	})
	b.Run("frame/decode", func(b *testing.B) {
		for b.Loop() {
			_, _ = decodeShardResponse(frame, newResultInterner())
		}
	})
	b.Run("json/encode", func(b *testing.B) {
		for b.Loop() {
			_, _ = json.Marshal(resp)
		}
	})
	b.Run("json/decode", func(b *testing.B) {
		for b.Loop() {
			var out ShardResponse
			_ = json.Unmarshal(js, &out)
		}
	})
}

// BenchmarkDecodeShardResponse times the coordinator's decode of a warm
// 15-session shard: cold, every result decoded into a fresh interner, and
// interned, the shard a worker answers again from its memo, whose results
// the interner already holds.
func BenchmarkDecodeShardResponse(b *testing.B) {
	frame, err := appendShardResponse(nil, warmShard(b), nil)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("cold", func(b *testing.B) {
		b.SetBytes(int64(len(frame)))
		for b.Loop() {
			if _, err := decodeShardResponse(frame, newResultInterner()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("interned", func(b *testing.B) {
		results := newResultInterner()
		if _, err := decodeShardResponse(frame, results); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(frame)))
		for b.Loop() {
			if _, err := decodeShardResponse(frame, results); err != nil {
				b.Fatal(err)
			}
		}
	})
}

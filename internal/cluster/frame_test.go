package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/engine"
)

// fillDistinct sets every field reachable from v to a distinct non-zero
// value: pointers get a fresh target, slices two elements, bools true. A
// kind it does not know (a map, an interface, an unexported field) fails the
// test, so a new field of such a kind cannot slip past the codec unseen.
func fillDistinct(t *testing.T, v reflect.Value, next *int64) {
	t.Helper()
	if !v.CanSet() {
		t.Fatalf("cannot set %s: the frame codec cannot carry it either", v.Type())
	}
	*next++
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
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
	frame, err := appendShardResponse(nil, resp)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeShardResponse(frame)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, resp) {
		t.Fatalf("frame round trip lost data:\n got %+v\nwant %+v", got, resp)
	}
	if math.Signbit(got.Results[2].Outcomes[0].EnergyMJ) != true {
		t.Error("negative zero lost its sign")
	}
	again, err := appendShardResponse(nil, got)
	if err != nil || !bytes.Equal(again, frame) {
		t.Fatalf("re-encoding a decoded frame changed its bytes (err %v)", err)
	}
}

// TestFrameRejectsHostileBytes covers the decoder's refusals: every prefix
// of a valid frame, wrong magic and version, counts larger than the input,
// non-minimal varints, unknown flag bits and trailing bytes all fail with an
// error, never a panic or an oversized allocation.
func TestFrameRejectsHostileBytes(t *testing.T) {
	frame, err := appendShardResponse(nil, codecResponse(t))
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(frame); n++ {
		if _, err := decodeShardResponse(frame[:n]); err == nil {
			t.Fatalf("accepted a frame truncated to %d of %d bytes", n, len(frame))
		}
	}
	header := append(frameMagic[:], frameVersion)
	bad := map[string][]byte{
		"wrong magic":       append([]byte("JSON"), frame[4:]...),
		"wrong version":     append(append(frameMagic[:], frameVersion+1), frame[5:]...),
		"trailing bytes":    append(bytes.Clone(frame), 0),
		"huge result count": append(bytes.Clone(header), 0xff, 0xff, 0xff, 0xff, 0x0f),
		"non-minimal count": append(bytes.Clone(header), 0x81, 0x00, 0x00, 0x02, '{', '}'),
		"bad presence":      append(bytes.Clone(header), 0x02, 0x07),
		"unknown flags": append(bytes.Clone(header), 0x02, 0x01, 0x00, 0x00, 0x02,
			0x80, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
		"non-canonical tail": append(bytes.Clone(header), 0x01, 0x0d, '{', '"', 's', 't', 'a', 't', 's', '"', ':', '{', '}', ' ', '}'),
	}
	for name, b := range bad {
		if _, err := decodeShardResponse(b); !errors.Is(err, errFrame) {
			t.Errorf("%s: err = %v, want a malformed-frame error", name, err)
		}
	}
}

// FuzzDecodeShardResponse feeds arbitrary bytes to the decoder: it must
// never panic, and any frame it accepts must re-encode to the same bytes.
// The seed corpus lives in testdata/fuzz/FuzzDecodeShardResponse.
func FuzzDecodeShardResponse(f *testing.F) {
	f.Fuzz(func(t *testing.T, frame []byte) {
		resp, err := decodeShardResponse(frame)
		if err != nil {
			return
		}
		again, err := appendShardResponse(nil, resp)
		if err != nil {
			t.Fatalf("accepted frame does not re-encode: %v", err)
		}
		if !bytes.Equal(again, frame) {
			t.Fatalf("accepted frame re-encodes differently:\n in %x\nout %x", frame, again)
		}
	})
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
	for version, wants := range map[string][]string{
		"2": {"frame version mismatch", "v2", "v1"},
		"":  {"frame version mismatch", "JSON", "v1"},
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
	frame, err := appendShardResponse(nil, ShardResponse{Results: make([]*engine.Result, 1)})
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
	capped := &httpTransport{client: &http.Client{}, maxResponse: int64(len(frame)) - 1}
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
func warmShard(b *testing.B) ShardResponse {
	w := newTestWorker(b)
	req := ShardRequest{Sessions: testSpecs()[:15]}
	if _, err := w.RunShard(req); err != nil {
		b.Fatal(err)
	}
	resp, err := w.RunShardTraced("bench", req)
	if err != nil {
		b.Fatal(err)
	}
	return resp
}

// BenchmarkShardResponseCodec times the frame against the JSON encoding it
// replaced, on a warm 15-session shard.
func BenchmarkShardResponseCodec(b *testing.B) {
	resp := warmShard(b)
	frame, err := appendShardResponse(nil, resp)
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
			_, _ = appendShardResponse(nil, resp)
		}
	})
	b.Run("frame/decode", func(b *testing.B) {
		for b.Loop() {
			_, _ = decodeShardResponse(frame)
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

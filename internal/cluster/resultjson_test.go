package cluster

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"repro/internal/engine"
	"repro/internal/webevent"
)

// TestResultAppendJSONMatchesEncodingJSON is the drift guard of
// engine.Result.AppendJSON, the encoder behind the results stream, the
// results document and the store. It lives beside the frame's field
// coverage guard to share its filler: the fully populated result and the
// edge shapes of codecResponse (nil entries, outcomes without an event,
// empty non-nil slices, negative and signed-zero values, -MaxFloat64), the
// float formatting boundaries and strings encoding/json escapes must all
// encode to json.Marshal's bytes. A field added to Result, Outcome or Event
// fails here until the encoder writes it.
func TestResultAppendJSONMatchesEncodingJSON(t *testing.T) {
	results := codecResponse(t).Results
	for _, f := range []float64{
		1e-6, 9.99e-7, 1e21, 1e-7, 5e-324, math.Copysign(0, -1),
		-1e-7, 9.999999999999999e20, -1e21, 1.5e300, 0.1, 123456.789,
	} {
		results = append(results, &engine.Result{
			Outcomes:      []engine.Outcome{{Event: &webevent.Event{ViewportY: f}, EnergyMJ: -f}},
			ViolationRate: f,
		})
	}
	for _, s := range []string{
		"a<b", "a>b", "a&b", `a"b`, `a\b`, "a\x1fb", "a\x7fb", "<script>",
		"line\u2028sep\u2029", "\xff\xfe", "\xed\xa0\x80", "\x00\x01",
		"tab\tnl\ncr\r", "café", "😀", "",
	} {
		results = append(results, &engine.Result{
			Scheduler: s, App: s,
			Outcomes: []engine.Outcome{{Event: &webevent.Event{App: s}}},
		})
	}
	prefix := []byte(`{"rows":[`)
	for i, r := range results {
		want, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		got, err := r.AppendJSON(bytes.Clone(prefix))
		if err != nil || !bytes.HasPrefix(got, prefix) || !bytes.Equal(got[len(prefix):], want) {
			t.Errorf("result %d: AppendJSON (err %v) differs from json.Marshal:\n got %s\nwant %s", i, err, got[min(len(prefix), len(got)):], want)
		}
	}
}

// TestResultAppendJSONRejectsUnsupportedFloats: NaN and ±Inf make both
// encoders fail, with the same error, wherever the float sits; AppendJSON
// then leaves the buffer as it was.
func TestResultAppendJSONRejectsUnsupportedFloats(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for name, r := range map[string]*engine.Result{
			"ViolationRate": {ViolationRate: f},
			"EnergyMJ":      {Outcomes: []engine.Outcome{{}, {EnergyMJ: f}}},
			"ViewportY":     {Outcomes: []engine.Outcome{{Event: &webevent.Event{ViewportY: f}}}},
			"TotalEnergyMJ": {TotalEnergyMJ: f, BusyEnergyMJ: f},
		} {
			_, werr := json.Marshal(r)
			got, gerr := r.AppendJSON([]byte("kept"))
			if werr == nil || gerr == nil || gerr.Error() != werr.Error() || string(got) != "kept" {
				t.Errorf("%s = %v: json.Marshal err %v, AppendJSON err %v, buffer %q", name, f, werr, gerr, got)
			}
		}
	}
}

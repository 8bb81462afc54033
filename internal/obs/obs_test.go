package obs

import (
	"bufio"
	"fmt"
	"math"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestNilMetricsAreSafe(t *testing.T) {
	var h *Histogram
	var rec *Recorder
	h.Observe(1)
	h.ObserveSeconds(100)
	rec.Record(Span{Name: "x"})
	rec.Merge("", []Span{{Name: "y"}})
	if h.Count() != 0 || h.Sum() != 0 || h.BucketCounts() != nil {
		t.Fatal("nil metrics must read zero")
	}
	if rec.Timeline() != nil || rec.Len() != 0 || rec.TraceID() != "" {
		t.Fatal("nil recorder must read empty")
	}
}

func TestHistogramBucketsSumToCount(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("pes_test_seconds", "latency")
	vals := []float64{0.00005, 0.0001, 0.002, 0.05, 0.5, 40, 100}
	for _, v := range vals {
		h.Observe(v)
	}
	if h.Count() != int64(len(vals)) {
		t.Fatalf("count = %d, want %d", h.Count(), len(vals))
	}
	var sum float64
	for _, v := range vals {
		sum += v
	}
	if math.Abs(h.Sum()-sum) > 1e-9 {
		t.Fatalf("sum = %v, want %v", h.Sum(), sum)
	}
	var bucketTotal int64
	for _, c := range h.BucketCounts() {
		bucketTotal += c
	}
	if bucketTotal != h.Count() {
		t.Fatalf("bucket counts sum to %d, want _count %d", bucketTotal, h.Count())
	}
	// 0.00005 and 0.0001 land in le=0.0001 (upper bound inclusive).
	if got := h.BucketCounts()[0]; got != 2 {
		t.Fatalf("first bucket = %d, want 2", got)
	}
	// 40 and 100 land in +Inf.
	if got := h.BucketCounts()[len(DefBuckets)]; got != 2 {
		t.Fatalf("+Inf bucket = %d, want 2", got)
	}
}

// parseExposition is a minimal Prometheus text-format 0.0.4 parser: it
// validates line grammar and returns sample name → value. It fails the test
// on any malformed line.
func parseExposition(t *testing.T, text string) map[string]float64 {
	t.Helper()
	samples := make(map[string]float64)
	typed := make(map[string]string)
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(line)
			if len(fields) < 4 {
				t.Fatalf("malformed comment line: %q", line)
			}
			if fields[1] == "TYPE" {
				switch fields[3] {
				case "counter", "gauge", "histogram":
				default:
					t.Fatalf("unknown TYPE %q in %q", fields[3], line)
				}
				typed[fields[2]] = fields[3]
			}
			continue
		}
		// sample line: name{labels} value  |  name value
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed sample line: %q", line)
		}
		key, valStr := line[:sp], line[sp+1:]
		v, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		name := key
		if i := strings.IndexByte(key, '{'); i >= 0 {
			if !strings.HasSuffix(key, "}") {
				t.Fatalf("unbalanced label block in %q", line)
			}
			name = key[:i]
		}
		base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count")
		if _, ok := typed[name]; !ok {
			if _, ok := typed[base]; !ok {
				t.Fatalf("sample %q has no preceding # TYPE", line)
			}
		}
		if _, dup := samples[key]; dup {
			t.Fatalf("duplicate series %q", key)
		}
		samples[key] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return samples
}

// jobStats is a small tagged snapshot: a labelled counter family and a
// gauge.
type jobStats struct {
	Done   int64 `json:"done" metric:"pes_jobs_total,kind=done" help:"jobs"`
	Failed int64 `json:"failed" metric:"pes_jobs_total,kind=failed" help:"jobs"`
	Depth  int   `json:"depth" metric:"pes_queue_depth" help:"depth"`
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	Snapshot(r, func() jobStats { return jobStats{Done: 7, Failed: 2, Depth: 3} })
	h := r.Histogram("pes_lat_seconds", "latency")
	h.Observe(0.005)
	h.Observe(0.05)
	h.Observe(5)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	samples := parseExposition(t, text)

	want := map[string]float64{
		`pes_jobs_total{kind="done"}`:       7,
		`pes_jobs_total{kind="failed"}`:     2,
		`pes_queue_depth`:                   3,
		`pes_lat_seconds_bucket{le="0.01"}`: 1,
		`pes_lat_seconds_bucket{le="0.1"}`:  2,
		`pes_lat_seconds_bucket{le="+Inf"}`: 3,
		`pes_lat_seconds_count`:             3,
	}
	for k, v := range want {
		if got, ok := samples[k]; !ok || got != v {
			t.Errorf("series %s = %v (present=%v), want %v\nfull exposition:\n%s", k, got, ok, v, text)
		}
	}
	if got := samples["pes_lat_seconds_sum"]; math.Abs(got-5.055) > 1e-9 {
		t.Errorf("histogram sum = %v, want 5.055", got)
	}

	// Deterministic: two scrapes are byte-identical.
	var b2 strings.Builder
	if err := r.WritePrometheus(&b2); err != nil {
		t.Fatal(err)
	}
	if b2.String() != text {
		t.Error("two scrapes of an unchanged registry differ")
	}
}

func TestRegistryPanicsOnBadRegistration(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	expectPanic("invalid name", snapshotOf(NewRegistry(), struct {
		X int `metric:"9bad"`
	}{}))
	expectPanic("invalid label", snapshotOf(NewRegistry(), struct {
		X int `metric:"ok_total,9bad=v"`
	}{}))
	expectPanic("malformed label", snapshotOf(NewRegistry(), struct {
		X int `metric:"ok_total,kind"`
	}{}))
	expectPanic("kind conflict", func() {
		r := NewRegistry()
		r.Histogram("pes_x", "")
		snapshotOf(r, struct {
			X int `metric:"pes_x"`
		}{})()
	})
	expectPanic("duplicate series", snapshotOf(NewRegistry(), struct {
		X int `metric:"pes_x_total,a=b"`
		Y int `metric:"pes_x_total,a=b"`
	}{}))
	expectPanic("duplicate series across snapshots", func() {
		register := snapshotOf(NewRegistry(), struct {
			X int `metric:"pes_x"`
		}{})
		register()
		register()
	})
	expectPanic("unsupported kind float64", snapshotOf(NewRegistry(), struct {
		X float64 `metric:"pes_x"`
	}{}))
	expectPanic("unsupported kind string", snapshotOf(NewRegistry(), struct {
		X string `metric:"pes_x"`
	}{}))
	expectPanic("not a struct", snapshotOf(NewRegistry(), 0))
}

// snapshotOf returns a function registering a constant snapshot v on r.
func snapshotOf[T any](r *Registry, v T) func() {
	return func() { Snapshot(r, func() T { return v }) }
}

func TestMetricsRaceClean(t *testing.T) {
	r := NewRegistry()
	var n atomic.Int64
	Snapshot(r, func() (v struct {
		N int64 `metric:"pes_race_total"`
	}) {
		v.N = n.Load()
		return
	})
	h := r.Histogram("pes_race_seconds", "")
	const workers, perWorker = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				n.Add(1)
				h.Observe(float64(seed*perWorker+i) * 1e-6)
			}
		}(w)
	}
	// Concurrent scrapes while writers run.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			var b strings.Builder
			_ = r.WritePrometheus(&b)
		}
	}()
	wg.Wait()
	<-done
	if h.Count() != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", h.Count(), workers*perWorker)
	}
}

// The hot-path increments must not allocate: they sit inside the
// per-session simulate path that PR 4 drove to zero allocations.
func TestHotPathZeroAlloc(t *testing.T) {
	h := NewRegistry().Histogram("pes_alloc_seconds", "")
	var nilH *Histogram

	cases := []struct {
		name string
		fn   func()
	}{
		{"Histogram.Observe", func() { h.Observe(0.003) }},
		{"Histogram.ObserveSeconds", func() { h.ObserveSeconds(12345) }},
		{"nil Histogram.Observe", func() { nilH.Observe(1) }},
	}
	for _, tc := range cases {
		if allocs := testing.AllocsPerRun(200, tc.fn); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", tc.name, allocs)
		}
	}
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		0:      "0",
		7:      "7",
		-3:     "-3",
		1.5:    "1.5",
		0.0001: "0.0001",
	}
	for in, want := range cases {
		if got := formatFloat(in); got != want {
			t.Errorf("formatFloat(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestDebugHandlerRoutes(t *testing.T) {
	h := DebugHandler()
	if h == nil {
		t.Fatal("nil debug handler")
	}
	for _, path := range []string{"/debug/pprof/", "/debug/vars"} {
		rw := httptest.NewRecorder()
		h.ServeHTTP(rw, httptest.NewRequest("GET", path, nil))
		if rw.Code != 200 {
			t.Errorf("%s: status %d, want 200", path, rw.Code)
		}
	}
}

// TestFuncMetricsThroughHandler serves a registry of snapshot-backed
// metrics over the HTTP handler: the sample function must run at scrape
// time, every scrape, and the exposition must carry the text content type.
func TestFuncMetricsThroughHandler(t *testing.T) {
	r := NewRegistry()
	calls := 0
	Snapshot(r, func() (v struct {
		Calls int  `metric:"pes_func_total" help:"sampled counter"`
		Up    bool `metric:"pes_func_gauge,shard=a" help:"sampled gauge"`
	}) {
		v.Calls = calls
		v.Up = true
		calls++
		return
	})
	h := r.Handler()
	scrape := func() string {
		rw := httptest.NewRecorder()
		h.ServeHTTP(rw, httptest.NewRequest("GET", "/metrics", nil))
		if rw.Code != 200 {
			t.Fatalf("status %d, want 200", rw.Code)
		}
		if ct := rw.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
			t.Fatalf("Content-Type = %q, want text/plain exposition", ct)
		}
		return rw.Body.String()
	}
	if body := scrape(); !strings.Contains(body, "pes_func_total 1\n") {
		t.Errorf("first scrape did not sample the counter closure:\n%s", body)
	}
	body := scrape()
	if !strings.Contains(body, "pes_func_total 2\n") {
		t.Errorf("second scrape did not re-sample the counter closure:\n%s", body)
	}
	if !strings.Contains(body, `pes_func_gauge{shard="a"} 1`+"\n") {
		t.Errorf("labelled gauge func missing from scrape:\n%s", body)
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	r := NewRegistry()
	h := r.Histogram("pes_bench_seconds", "")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(0.00035)
	}
	if h.Count() != int64(b.N) {
		b.Fatal("count mismatch")
	}
}

func ExampleRegistry_WritePrometheus() {
	type stats struct {
		Sessions int64 `json:"sessions" metric:"pes_sessions_total" help:"Sessions simulated."`
	}
	r := NewRegistry()
	Snapshot(r, func() stats { return stats{Sessions: 42} })
	var b strings.Builder
	_ = r.WritePrometheus(&b)
	fmt.Print(b.String())
	// Output:
	// # HELP pes_sessions_total Sessions simulated.
	// # TYPE pes_sessions_total counter
	// pes_sessions_total 42
}

// TestNewHTTPServerTimeouts pins the listener timeouts: reads are bounded,
// writes are not (result streams and profiles run long).
func TestNewHTTPServerTimeouts(t *testing.T) {
	s := NewHTTPServer(":0", DebugHandler())
	if s.ReadHeaderTimeout <= 0 || s.ReadTimeout <= 0 || s.IdleTimeout <= 0 {
		t.Errorf("read timeouts unset: header %v, read %v, idle %v", s.ReadHeaderTimeout, s.ReadTimeout, s.IdleTimeout)
	}
	if s.WriteTimeout != 0 {
		t.Errorf("WriteTimeout = %v, want none", s.WriteTimeout)
	}
}

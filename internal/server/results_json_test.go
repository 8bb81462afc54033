package server

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/optimizer"
	"repro/internal/sessions"
	"repro/internal/webapp"
)

// poolCampaign is shaped like the end-to-end benchmark's pool campaigns:
// the apps (three there, 18 sessions) on one trace seed under every
// scheduler plus one swept PES threshold.
func poolCampaign(apps ...*webapp.Spec) Campaign {
	names := make([]string, len(apps))
	for i, app := range apps {
		names[i] = app.Name
	}
	return Campaign{
		Apps:       names,
		TraceSeeds: []int64{100_000},
		Schedulers: sessions.Names(),
		Sweep:      &Sweep{ConfidenceThresholds: []float64{0.3}},
	}
}

// poolCampaignJob runs the pool campaign of the registry's first three apps
// to completion.
func poolCampaignJob(tb testing.TB, s *Server) *job {
	tb.Helper()
	reg := webapp.Registry()
	return campaignJob(tb, s, poolCampaign(reg[0], reg[1], reg[2]), 18)
}

// campaignJob runs c to completion and checks it expanded to n sessions.
func campaignJob(tb testing.TB, s *Server, c Campaign, n int) *job {
	tb.Helper()
	st, err := submitStatus(s, c)
	if err != nil {
		tb.Fatal(err)
	}
	j, _ := s.jobByID(st.ID)
	deadline := time.Now().Add(2 * time.Minute)
	for st = j.snapshot(); !terminal(st.Status); st = j.snapshot() {
		if time.Now().After(deadline) {
			tb.Fatalf("campaign %s still %s at deadline", st.ID, st.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st.Status != StatusDone || st.Sessions != n {
		tb.Fatalf("campaign %s ended %s with %d sessions, want %d: %s", st.ID, st.Status, st.Sessions, n, st.Error)
	}
	return j
}

// poisonAfterDone gives row i of a finished campaign a NaN energy, in a
// copy of its result, and drops the campaign's pending entry, which was
// encoded before the NaN arrived: every later read encodes on demand.
func poisonAfterDone(j *job, i int) {
	settle(j)
	j.mu.Lock()
	defer j.mu.Unlock()
	results := append([]*engine.Result(nil), j.results...)
	bad := *results[i]
	bad.TotalEnergyMJ = math.NaN()
	results[i] = &bad
	j.results = results
	j.pending = nil
}

// poisonCached gives row i of a finished campaign a NaN energy in place, in
// the result the runner's memo cache holds, so every later run of the same
// campaign carries the NaN when its job worker encodes the pending entry:
// the entry fails, and the first read falls back to the on-demand path.
// The server must be the test's own, and no read may have encoded the row
// yet (nothing orders such a read's handler before this write), so each
// test poisons a campaign of its own.
func poisonCached(j *job, i int) {
	settle(j)
	j.mu.Lock()
	defer j.mu.Unlock()
	j.results[i].TotalEnergyMJ = math.NaN()
}

// settle waits until the job worker has written j's pending entry, if j
// still has one.
func settle(j *job) {
	j.mu.Lock()
	p := j.pending
	j.mu.Unlock()
	if p != nil {
		<-p.ready
	}
}

// encodingJSONRows renders rows the way the NDJSON stream did before
// ResultRow.appendJSON: one json.Encoder line per row.
func encodingJSONRows(tb testing.TB, rows []ResultRow) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, row := range rows {
		if err := enc.Encode(row); err != nil {
			tb.Fatal(err)
		}
	}
	return buf.Bytes()
}

// encodingJSONDocument renders the results document the way writeJSON did
// before Results.appendJSON.
func encodingJSONDocument(tb testing.TB, out Results) []byte {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(out); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// filteredResults is the rows and document the results handler builds for
// a filter, assembled independently of it.
func filteredResults(j *job, f rowFilter) Results {
	out := Results{ID: j.id, Rows: []ResultRow{}, Tables: j.plan.Tables(j.results)}
	var solver optimizer.SolverCounts
	for i, res := range j.results {
		if f.match(j.plan.Meta[i]) {
			out.Rows = append(out.Rows, ResultRow{SessionMeta: j.plan.Meta[i], Result: res})
			solver = solver.Add(res.Solver)
		}
	}
	out.Solver = solver
	return out
}

func fetchBody(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// TestResultsBodiesByteIdenticalToEncodingJSON pins both results formats of
// a pool campaign, under every filter, to the bytes encoding/json renders
// for the same rows, on an in-process server and on a coordinator with two
// workers: clients (and the benchmark's correctness sample) see no change
// from the append-based encoder. Each format and filter gets a run of its
// own, so its first read is served from the pending entry the job worker
// encoded when the campaign finished, and its second read, encoded on
// demand, must match it.
func TestResultsBodiesByteIdenticalToEncodingJSON(t *testing.T) {
	t.Run("hostile metadata", testHostileRowMetadata)
	reg := webapp.Registry()
	filters := []struct {
		query  string
		filter rowFilter
		rows   int
	}{
		{"", rowFilter{}, 18},
		{"app=" + reg[1].Name, rowFilter{app: reg[1].Name}, 6},
		{"scheduler=pes", rowFilter{sched: sessions.PES}, 6},
		{"app=" + reg[2].Name + "&scheduler=oracle", rowFilter{app: reg[2].Name, sched: sessions.Oracle}, 1},
	}
	for _, topo := range []struct {
		name   string
		server func(testing.TB) *Server
	}{{"inproc", testServer}, {"cluster", clusterServer}} {
		t.Run(topo.name, func(t *testing.T) {
			s := topo.server(t)
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()
			for _, c := range filters {
				for _, format := range []string{"document", "ndjson"} {
					j := poolCampaignJob(t, s)
					want := filteredResults(j, c.filter)
					if len(want.Rows) != c.rows {
						t.Fatalf("%q selects %d rows, want %d", c.query, len(want.Rows), c.rows)
					}
					url := ts.URL + "/v1/campaigns/" + j.id + "/results?" + c.query
					wantBody := encodingJSONDocument(t, want)
					if format == "ndjson" {
						url += "&format=ndjson"
						wantBody = encodingJSONRows(t, want.Rows)
					}
					before := s.health()
					for _, read := range []string{"first", "second"} {
						if code, body := fetchBody(t, url); code != http.StatusOK || !bytes.Equal(body, wantBody) {
							t.Errorf("%s %q, %s read: status %d, %d bytes, differs from encoding/json's %d", format, c.query, read, code, len(body), len(wantBody))
						}
					}
					after := s.health()
					if p, o := after.ResultsPending-before.ResultsPending, after.ResultsOnDemand-before.ResultsOnDemand; p != 1 || o != 1 {
						t.Errorf("%s %q: %d read(s) from the pending entry and %d on demand, want 1 and 1", format, c.query, p, o)
					}
				}
			}
		})
	}
}

// testHostileRowMetadata holds a row's metadata, written without
// encoding/json, to json.Marshal's bytes for labels and apps that need
// escaping (quotes, backslashes, HTML-unsafe bytes, U+2028, invalid UTF-8)
// and for thresholds on either side of the float format's switches; a NaN
// threshold fails as json.Marshal does and leaves the buffer as it was.
func testHostileRowMetadata(t *testing.T) {
	if n := reflect.TypeFor[SessionMeta]().NumField(); n != 6 {
		t.Fatalf("SessionMeta has %d fields; ResultRow.appendJSON writes 6", n)
	}
	texts := []string{"", "cnn", `a"b`, `back\slash`, "<script>&amp;", "line\u2028sep\u2029", "bad\xffutf8\xc3", "tab\tnl\n\x00"}
	thresholds := []float64{0, math.Copysign(0, -1), 0.3, 1, 1e-7, 1e-6, 9.99e-7, 1e20, 1e21, 5e-324, math.MaxFloat64, -0.5}
	res := &engine.Result{Scheduler: "PES", App: "cnn", Outcomes: []engine.Outcome{}, TotalEnergyMJ: 12.5}
	prefix := []byte(`[{"x":1},`)
	for i, text := range texts {
		for j, threshold := range thresholds {
			row := ResultRow{SessionMeta: SessionMeta{
				Platform: texts[(i+1)%len(texts)], App: text, TraceSeed: int64(j) - 3,
				Scheduler: texts[(i+j)%len(texts)], ConfidenceThreshold: threshold, Label: text + "@" + texts[j%len(texts)],
			}, Result: res}
			want, err := json.Marshal(row)
			if err != nil {
				t.Fatal(err)
			}
			got, err := row.appendJSON(bytes.Clone(prefix), nil)
			if err != nil || !bytes.Equal(got, append(bytes.Clone(prefix), want...)) {
				t.Errorf("app %q, threshold %v: appendJSON wrote %s (err %v), json.Marshal %s", text, threshold, got[min(len(got), len(prefix)):], err, want)
			}
		}
	}
	row := ResultRow{SessionMeta: SessionMeta{App: "cnn", ConfidenceThreshold: math.NaN()}, Result: res}
	_, want := json.Marshal(row)
	got, err := row.appendJSON(bytes.Clone(prefix), nil)
	if err == nil || want == nil || err.Error() != want.Error() || !bytes.Equal(got, prefix) {
		t.Errorf("NaN threshold: appendJSON gave %q with error %v, want the buffer unchanged and %v", got, err, want)
	}
}

// TestRepeatClusterCampaignAnswersSameBytes: the same campaign run twice
// through a coordinator with two workers gets the very same results the
// second time (the workers answer from their memos, and the coordinator
// interns what it decodes by its bytes), and both runs answer the same
// JSON document, apart from the campaign id, and the same NDJSON, each
// read from the pending entry and again on demand, all equal to what
// encoding/json renders for the first run's rows.
func TestRepeatClusterCampaignAnswersSameBytes(t *testing.T) {
	s := clusterServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	runs := []*job{poolCampaignJob(t, s), poolCampaignJob(t, s)}
	for i, res := range runs[1].results {
		if res != runs[0].results[i] {
			t.Errorf("row %d: the repeat campaign decoded its result again", i)
		}
	}
	want := filteredResults(runs[0], rowFilter{})
	wantDoc := encodingJSONDocument(t, want)
	wantRows := encodingJSONRows(t, want.Rows)
	for r, j := range runs {
		base := ts.URL + "/v1/campaigns/" + j.id + "/results"
		for _, read := range []string{"first", "second"} {
			code, doc := fetchBody(t, base)
			doc = bytes.Replace(doc, []byte(`"id":"`+j.id+`"`), []byte(`"id":"`+runs[0].id+`"`), 1)
			if code != http.StatusOK || !bytes.Equal(doc, wantDoc) {
				t.Errorf("run %d, %s document read: status %d, %d bytes, want encoding/json's %d", r, read, code, len(doc), len(wantDoc))
			}
		}
	}
	// A fresh run for each NDJSON read pair, so its first read is served
	// from the pending entry too.
	for r := range 2 {
		j := poolCampaignJob(t, s)
		for _, read := range []string{"first", "second"} {
			if code, rows := fetchBody(t, ts.URL+"/v1/campaigns/"+j.id+"/results?format=ndjson"); code != http.StatusOK || !bytes.Equal(rows, wantRows) {
				t.Errorf("run %d, %s NDJSON read: status %d, %d bytes, want encoding/json's %d", r, read, code, len(rows), len(wantRows))
			}
		}
	}
}

// TestUnencodableResultAnswers500: a NaN energy cannot be encoded as JSON.
// The results document answers 500 with an error body instead of a 200
// with an empty one; the NDJSON stream answers 500 when the first row is
// bad, and otherwise ends with one apiError line after the last good row.
// The NaN reaches both the pending entry and the on-demand path: poisoned
// after the campaign is done (the entry, encoded before, is dropped) and
// present when it finishes (the entry fails to encode, and the first read
// falls back).
func TestUnencodableResultAnswers500(t *testing.T) {
	s, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	results := func(j *job) string { return ts.URL + "/v1/campaigns/" + j.id + "/results" }
	checkDocument := func(how string, j *job) {
		t.Helper()
		code, body := fetchBody(t, results(j))
		var apiErr apiError
		if code != http.StatusInternalServerError || json.Unmarshal(body, &apiErr) != nil || !strings.Contains(apiErr.Error, "NaN") {
			t.Errorf("document, NaN %s: status %d body %q, want 500 with an error naming the NaN", how, code, body)
		}
	}
	checkStream := func(how string, j *job, good []byte) {
		t.Helper()
		code, body := fetchBody(t, results(j)+"?format=ndjson")
		rows := good[:nthLine(good, 5)]
		var lineErr apiError
		if code != http.StatusOK || !bytes.HasPrefix(body, rows) {
			t.Errorf("NDJSON, NaN %s: status %d, %d bytes; want 200 and the 5 rows before the bad one (%d bytes) first", how, code, len(body), len(rows))
		} else if tail := body[len(rows):]; bytes.Count(tail, []byte("\n")) != 1 || tail[len(tail)-1] != '\n' ||
			json.Unmarshal(tail, &lineErr) != nil || !strings.HasPrefix(lineErr.Error, "encoding results: ") || !strings.Contains(lineErr.Error, "NaN") {
			t.Errorf("NDJSON, NaN %s: after the 5 good rows got %q, want one error line naming the NaN", how, tail)
		}
	}
	checkStream500 := func(how string, j *job) {
		t.Helper()
		code, body := fetchBody(t, results(j)+"?format=ndjson")
		var apiErr apiError
		if code != http.StatusInternalServerError || json.Unmarshal(body, &apiErr) != nil || !strings.Contains(apiErr.Error, "NaN") {
			t.Errorf("NDJSON with a bad first row, NaN %s: status %d body %q, want 500 with an error", how, code, body)
		}
	}

	j := poolCampaignJob(t, s)
	good := encodingJSONRows(t, filteredResults(j, rowFilter{}).Rows)
	poisonAfterDone(j, 5)
	checkDocument("after done", j)
	checkStream("after done", j, good)
	poisonAfterDone(j, 0)
	checkStream500("after done", j)

	// Present at finish: each run's first read meets a failed entry. The
	// campaigns are poisoned in the memo cache, so each is one of its own.
	reg := webapp.Registry()
	atFinish := poolCampaign(reg[3], reg[4], reg[5])
	j = campaignJob(t, s, atFinish, 18)
	good = encodingJSONRows(t, filteredResults(j, rowFilter{}).Rows)
	poisonCached(j, 5)
	checkDocument("at finish", campaignJob(t, s, atFinish, 18))
	checkStream("at finish", campaignJob(t, s, atFinish, 18), good)
	badFirst := poolCampaign(reg[6], reg[7], reg[8])
	poisonCached(campaignJob(t, s, badFirst, 18), 0)
	checkStream500("at finish", campaignJob(t, s, badFirst, 18))

	if h := s.health(); h.ResultsPending != 0 || h.ResultsOnDemand != 6 {
		t.Errorf("%d read(s) served from a pending entry and %d on demand, want 0 and 6", h.ResultsPending, h.ResultsOnDemand)
	}
}

// TestNDJSONStreamWritesBlocks: the NDJSON stream writes its rows in
// blocks of at least ndjsonBlock bytes (the last may be short), with the
// same bytes as one line per row, whether the read is served from the
// pending entry or encoded on demand. An unencodable row past the first
// block, after good rows were already written, still gets a 200, exactly
// the good rows before it and one error line: poisoned after the campaign
// is done, and present when it finishes.
func TestNDJSONStreamWritesBlocks(t *testing.T) {
	s, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	j := poolCampaignJob(t, s)
	path := func(j *job) string { return "/v1/campaigns/" + j.id + "/results?format=ndjson" }
	good := encodingJSONRows(t, filteredResults(j, rowFilter{}).Rows)

	for _, read := range []string{"pending", "on demand"} {
		rec := &writeRecorder{ResponseRecorder: httptest.NewRecorder()}
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path(j), nil))
		if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), good) {
			t.Fatalf("%s: status %d, %d bytes; want 200 and the %d bytes of one line per row", read, rec.Code, rec.Body.Len(), len(good))
		}
		if len(rec.writes) < 2 {
			t.Fatalf("%s: %d bytes in %d write(s); the pool campaign should span more than one block", read, len(good), len(rec.writes))
		}
		for i, n := range rec.writes[:len(rec.writes)-1] {
			if n < ndjsonBlock {
				t.Errorf("%s: write %d of %d holds %d bytes, below the %d-byte block", read, i, len(rec.writes), n, ndjsonBlock)
			}
		}
	}
	if h := s.health(); h.ResultsPending != 1 || h.ResultsOnDemand != 1 {
		t.Errorf("%d read(s) served from a pending entry and %d on demand, want 1 and 1", h.ResultsPending, h.ResultsOnDemand)
	}

	check := func(how string, j *job, good []byte, bad int) {
		t.Helper()
		code, body := fetchBody(t, ts.URL+path(j))
		rows := good[:nthLine(good, bad)]
		var lineErr apiError
		if code != http.StatusOK || !bytes.HasPrefix(body, rows) {
			t.Errorf("NaN %s: status %d, %d bytes; want 200 and the %d rows before the bad one (%d bytes) first", how, code, len(body), bad, len(rows))
		} else if tail := body[len(rows):]; bytes.Count(tail, []byte("\n")) != 1 || tail[len(tail)-1] != '\n' ||
			json.Unmarshal(tail, &lineErr) != nil || !strings.HasPrefix(lineErr.Error, "encoding results: ") || !strings.Contains(lineErr.Error, "NaN") {
			t.Errorf("NaN %s: after the %d good rows got %q, want one error line naming the NaN", how, bad, tail)
		}
	}
	bad := firstRowPastBlock(t, good)
	poisonAfterDone(j, bad)
	check("after done", j, good, bad)

	// Present at finish, on a campaign of its own (see poisonCached).
	reg := webapp.Registry()
	atFinish := poolCampaign(reg[3], reg[4], reg[5])
	j = campaignJob(t, s, atFinish, 18)
	good = encodingJSONRows(t, filteredResults(j, rowFilter{}).Rows)
	bad = firstRowPastBlock(t, good)
	poisonCached(j, bad)
	check("at finish", campaignJob(t, s, atFinish, 18), good, bad)
}

// firstRowPastBlock returns the first of the NDJSON rows that starts past
// the first block.
func firstRowPastBlock(t *testing.T, rows []byte) int {
	t.Helper()
	bad := 0
	for nthLine(rows, bad) < ndjsonBlock {
		bad++
	}
	if bad >= bytes.Count(rows, []byte("\n")) {
		t.Fatalf("row %d is past the campaign's rows", bad)
	}
	return bad
}

// writeRecorder records the size of every body write; Flush is the
// embedded recorder's.
type writeRecorder struct {
	*httptest.ResponseRecorder
	writes []int
}

func (w *writeRecorder) Write(b []byte) (int, error) {
	w.writes = append(w.writes, len(b))
	return w.ResponseRecorder.Write(b)
}

// nthLine returns the offset at which line n (0-based) of b starts.
func nthLine(b []byte, n int) int {
	off := 0
	for ; n > 0; n-- {
		off += bytes.IndexByte(b[off:], '\n') + 1
	}
	return off
}

// BenchmarkResultRowsEncode times both results formats over a pool
// campaign's 18 rows: the encoding/json path the server used before and
// the append-based one it uses now. pending times the job worker's encode
// of the whole answer into a pending entry on the buffers of its previous
// one: every row through the event memo, then the tables and solver sum.
func BenchmarkResultRowsEncode(b *testing.B) {
	s := testServer(b)
	j := poolCampaignJob(b, s)
	out := filteredResults(j, rowFilter{})
	b.Run("ndjson/encoding-json", func(b *testing.B) {
		enc := json.NewEncoder(io.Discard)
		for b.Loop() {
			for _, row := range out.Rows {
				if err := enc.Encode(row); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("ndjson/AppendJSON", func(b *testing.B) {
		var line []byte // one buffer for every row, as in the handler
		for b.Loop() {
			for _, row := range out.Rows {
				var err error
				if line, err = row.appendJSON(line[:0], nil); err != nil {
					b.Fatal(err)
				}
				_, _ = io.Discard.Write(append(line, '\n'))
			}
		}
	})
	b.Run("document/encoding-json", func(b *testing.B) {
		for b.Loop() {
			if err := json.NewEncoder(io.Discard).Encode(out); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("document/AppendJSON", func(b *testing.B) {
		var body []byte // the handler recycles its buffer the same way
		for b.Loop() {
			var err error
			if body, err = out.appendJSON(body[:0]); err != nil {
				b.Fatal(err)
			}
			_, _ = io.Discard.Write(append(body, '\n'))
		}
	})
	b.Run("pending", func(b *testing.B) {
		bufs := encodePending(b, j, resultsBuffers{})
		for b.Loop() {
			bufs = encodePending(b, j, bufs)
		}
	})
}

// BenchmarkResultsRead times a results GET right after a pool campaign is
// done, through the server's handler, in both formats: served from the
// pending entry its job worker encoded when the campaign finished (each
// iteration runs a fresh campaign, untimed, and waits until the entry is
// written), and encoded on demand (repeat reads of one campaign).
func BenchmarkResultsRead(b *testing.B) {
	s := testServer(b)
	h := s.Handler()
	read := func(b *testing.B, j *job, query string) {
		w := &discardWriter{header: http.Header{}, code: http.StatusOK}
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/campaigns/"+j.id+"/results"+query, nil))
		if w.code != http.StatusOK || w.n == 0 {
			b.Fatalf("status %d, %d bytes", w.code, w.n)
		}
	}
	for _, f := range []struct{ name, query string }{{"document", ""}, {"ndjson", "?format=ndjson"}} {
		b.Run(f.name+"/pending", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				j := poolCampaignJob(b, s)
				settle(j)
				b.StartTimer()
				read(b, j, f.query)
			}
		})
		b.Run(f.name+"/on-demand", func(b *testing.B) {
			j := poolCampaignJob(b, s)
			read(b, j, f.query) // uses the entry up
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				read(b, j, f.query)
			}
		})
	}
}

// discardWriter is a ResponseWriter that counts the body and drops it.
type discardWriter struct {
	header http.Header
	code   int
	n      int
}

func (w *discardWriter) Header() http.Header         { return w.header }
func (w *discardWriter) WriteHeader(code int)        { w.code = code }
func (w *discardWriter) Write(b []byte) (int, error) { w.n += len(b); return len(b), nil }

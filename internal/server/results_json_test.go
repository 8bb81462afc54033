package server

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/optimizer"
	"repro/internal/sessions"
	"repro/internal/webapp"
)

// poolCampaignJob runs, to completion, a campaign shaped like the
// end-to-end benchmark's pool campaigns: three registry apps on one trace
// seed under every scheduler plus one swept PES threshold, 18 sessions.
func poolCampaignJob(tb testing.TB, s *Server) *job {
	tb.Helper()
	reg := webapp.Registry()
	st, err := s.Submit(Campaign{
		Apps:       []string{reg[0].Name, reg[1].Name, reg[2].Name},
		TraceSeeds: []int64{100_000},
		Schedulers: sessions.Names(),
		Sweep:      &Sweep{ConfidenceThresholds: []float64{0.3}},
	})
	if err != nil {
		tb.Fatal(err)
	}
	j, _ := s.jobByID(st.ID)
	deadline := time.Now().Add(2 * time.Minute)
	for st = j.snapshot(); !terminal(st.Status); st = j.snapshot() {
		if time.Now().After(deadline) {
			tb.Fatalf("pool campaign %s still %s at deadline", st.ID, st.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st.Status != StatusDone || st.Sessions != 18 {
		tb.Fatalf("pool campaign ended %s with %d sessions: %s", st.Status, st.Sessions, st.Error)
	}
	return j
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
// a pool campaign, filtered and not, to the bytes encoding/json renders for
// the same rows: clients (and the benchmark's correctness sample) see no
// change from the append-based encoder.
func TestResultsBodiesByteIdenticalToEncodingJSON(t *testing.T) {
	s := testServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	j := poolCampaignJob(t, s)
	reg := webapp.Registry()

	for _, c := range []struct {
		query  string
		filter rowFilter
		rows   int
	}{
		{"", rowFilter{}, 18},
		{"app=" + reg[1].Name, rowFilter{app: reg[1].Name}, 6},
		{"scheduler=pes", rowFilter{sched: sessions.PES}, 6},
		{"app=" + reg[2].Name + "&scheduler=oracle", rowFilter{app: reg[2].Name, sched: sessions.Oracle}, 1},
	} {
		want := filteredResults(j, c.filter)
		if len(want.Rows) != c.rows {
			t.Fatalf("%q selects %d rows, want %d", c.query, len(want.Rows), c.rows)
		}
		base := ts.URL + "/v1/campaigns/" + j.id + "/results?" + c.query
		code, doc := fetchBody(t, base)
		if code != http.StatusOK || !bytes.Equal(doc, encodingJSONDocument(t, want)) {
			t.Errorf("%q: document (status %d, %d bytes) differs from encoding/json's", c.query, code, len(doc))
		}
		code, stream := fetchBody(t, base+"&format=ndjson")
		if code != http.StatusOK || !bytes.Equal(stream, encodingJSONRows(t, want.Rows)) {
			t.Errorf("%q: NDJSON stream (status %d, %d bytes) differs from encoding/json's", c.query, code, len(stream))
		}
	}
}

// TestUnencodableResultAnswers500: a NaN energy cannot be encoded as JSON.
// The results document answers 500 with an error body instead of a 200
// with an empty one; the NDJSON stream answers 500 when the first row is
// bad, and otherwise ends with one apiError line after the last good row.
func TestUnencodableResultAnswers500(t *testing.T) {
	s, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	j := poolCampaignJob(t, s)
	base := ts.URL + "/v1/campaigns/" + j.id + "/results"
	good := encodingJSONRows(t, filteredResults(j, rowFilter{}).Rows)

	poison := func(i int) {
		j.mu.Lock()
		defer j.mu.Unlock()
		results := append([]*engine.Result(nil), j.results...)
		bad := *results[i]
		bad.TotalEnergyMJ = math.NaN()
		results[i] = &bad
		j.results = results
	}
	poison(5)

	code, body := fetchBody(t, base)
	var apiErr apiError
	if code != http.StatusInternalServerError || json.Unmarshal(body, &apiErr) != nil || !strings.Contains(apiErr.Error, "NaN") {
		t.Errorf("document: status %d body %q, want 500 with an error naming the NaN", code, body)
	}
	code, body = fetchBody(t, base+"?format=ndjson")
	rows := good[:nthLine(good, 5)]
	var lineErr apiError
	if code != http.StatusOK || !bytes.HasPrefix(body, rows) {
		t.Errorf("NDJSON: status %d, %d bytes; want 200 and the 5 rows before the bad one (%d bytes) first", code, len(body), len(rows))
	} else if tail := body[len(rows):]; bytes.Count(tail, []byte("\n")) != 1 || tail[len(tail)-1] != '\n' ||
		json.Unmarshal(tail, &lineErr) != nil || !strings.HasPrefix(lineErr.Error, "encoding results: ") || !strings.Contains(lineErr.Error, "NaN") {
		t.Errorf("NDJSON: after the 5 good rows got %q, want one error line naming the NaN", tail)
	}

	poison(0)
	code, body = fetchBody(t, base+"?format=ndjson")
	if code != http.StatusInternalServerError || json.Unmarshal(body, &apiErr) != nil || !strings.Contains(apiErr.Error, "NaN") {
		t.Errorf("NDJSON with a bad first row: status %d body %q, want 500 with an error", code, body)
	}
}

// TestNDJSONStreamWritesBlocks: the NDJSON stream writes its rows in
// blocks of at least ndjsonBlock bytes (the last may be short), with the
// same bytes as one line per row. An unencodable row past the first block,
// after good rows were already written, still gets a 200, exactly the good
// rows before it and one error line.
func TestNDJSONStreamWritesBlocks(t *testing.T) {
	s, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	j := poolCampaignJob(t, s)
	path := "/v1/campaigns/" + j.id + "/results?format=ndjson"
	good := encodingJSONRows(t, filteredResults(j, rowFilter{}).Rows)

	rec := &writeRecorder{ResponseRecorder: httptest.NewRecorder()}
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), good) {
		t.Fatalf("status %d, %d bytes; want 200 and the %d bytes of one line per row", rec.Code, rec.Body.Len(), len(good))
	}
	if len(rec.writes) < 2 {
		t.Fatalf("%d bytes in %d write(s); the pool campaign should span more than one block", len(good), len(rec.writes))
	}
	for i, n := range rec.writes[:len(rec.writes)-1] {
		if n < ndjsonBlock {
			t.Errorf("write %d of %d holds %d bytes, below the %d-byte block", i, len(rec.writes), n, ndjsonBlock)
		}
	}

	bad := 0 // the first row that starts past the first block
	for nthLine(good, bad) < ndjsonBlock {
		bad++
	}
	if bad >= bytes.Count(good, []byte("\n")) {
		t.Fatalf("row %d is past the pool campaign's rows", bad)
	}
	j.mu.Lock()
	results := append([]*engine.Result(nil), j.results...)
	poisoned := *results[bad]
	poisoned.TotalEnergyMJ = math.NaN()
	results[bad] = &poisoned
	j.results = results
	j.mu.Unlock()
	code, body := fetchBody(t, ts.URL+path)
	rows := good[:nthLine(good, bad)]
	var lineErr apiError
	if code != http.StatusOK || !bytes.HasPrefix(body, rows) {
		t.Errorf("status %d, %d bytes; want 200 and the %d rows before the bad one (%d bytes) first", code, len(body), bad, len(rows))
	} else if tail := body[len(rows):]; bytes.Count(tail, []byte("\n")) != 1 || tail[len(tail)-1] != '\n' ||
		json.Unmarshal(tail, &lineErr) != nil || !strings.HasPrefix(lineErr.Error, "encoding results: ") || !strings.Contains(lineErr.Error, "NaN") {
		t.Errorf("after the %d good rows got %q, want one error line naming the NaN", bad, tail)
	}
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
// the append-based one it uses now.
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
				if line, err = row.appendJSON(line[:0]); err != nil {
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
}

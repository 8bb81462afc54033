package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/batch"
	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/store"
)

// scrapeMetrics fetches /metrics through the server's public handler and
// returns every sample keyed by its full series name including labels
// (e.g. `pes_session_seconds_bucket{le="+Inf"}`).
func scrapeMetrics(t *testing.T, h http.Handler) map[string]float64 {
	t.Helper()
	ts := httptest.NewServer(h)
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q, want text/plain exposition", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	samples := make(map[string]float64)
	typed := make(map[string]bool)
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			typed[strings.Fields(line)[2]] = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed exposition line %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("unparsable value in line %q: %v", line, err)
		}
		name := line[:sp]
		if _, dup := samples[name]; dup {
			t.Fatalf("duplicate series %q in one scrape", name)
		}
		samples[name] = v
		family := name
		if i := strings.IndexByte(family, '{'); i >= 0 {
			family = family[:i]
		}
		family = strings.TrimSuffix(family, "_bucket")
		family = strings.TrimSuffix(family, "_sum")
		family = strings.TrimSuffix(family, "_count")
		if !typed[family] {
			t.Fatalf("series %q has no preceding # TYPE for family %q", name, family)
		}
	}
	return samples
}

// TestMetricsEndpointMonotonicAcrossRepeatCampaign gates the exposition on
// the live server: the format parses, every /healthz counter family is
// present, the session histogram's count tracks the sessions counter, and a
// repeat campaign moves the memo-hit counter while counters stay monotonic.
func TestMetricsEndpointMonotonicAcrossRepeatCampaign(t *testing.T) {
	s := testServer(t)
	campaign := Campaign{Apps: []string{"cnn"}, Schedulers: []string{"EBS", "PES"}}
	st1, err := submitStatus(s, campaign)
	if err != nil {
		t.Fatal(err)
	}
	if got := pollTerminal(t, s, st1.ID); got.Status != StatusDone {
		t.Fatalf("campaign %s: %s (%s)", got.ID, got.Status, got.Error)
	}
	before := scrapeMetrics(t, s.Handler())
	for _, series := range []string{
		"pes_sessions_total", "pes_unique_runs_total", "pes_cache_hits_total",
		"pes_cache_entries", "pes_cache_evictions_total", "pes_store_hits_total",
		"pes_solver_solves_total", "pes_solver_nodes_total", "pes_solver_plan_cache_hits_total",
		"pes_solver_budget_aborts_total", "pes_campaign_queue_depth", "pes_jobs",
		"pes_journaled", "pes_campaigns_resumed", "pes_session_seconds_count",
		"pes_session_seconds_sum", "pes_solve_seconds_count",
	} {
		if _, ok := before[series]; !ok {
			t.Errorf("scrape is missing series %s", series)
		}
	}
	if before["pes_session_seconds_count"] != before["pes_sessions_total"] {
		t.Errorf("session histogram count %v != sessions counter %v",
			before["pes_session_seconds_count"], before["pes_sessions_total"])
	}
	if inf := before[`pes_session_seconds_bucket{le="+Inf"}`]; inf != before["pes_session_seconds_count"] {
		t.Errorf("+Inf bucket %v != _count %v (cumulative buckets must end at the count)",
			inf, before["pes_session_seconds_count"])
	}

	st2, err := submitStatus(s, campaign)
	if err != nil {
		t.Fatal(err)
	}
	if got := pollTerminal(t, s, st2.ID); got.Status != StatusDone {
		t.Fatalf("repeat campaign %s: %s (%s)", got.ID, got.Status, got.Error)
	}
	after := scrapeMetrics(t, s.Handler())
	for _, counter := range []string{
		"pes_sessions_total", "pes_unique_runs_total", "pes_cache_hits_total",
		"pes_solver_solves_total", "pes_session_seconds_count",
	} {
		if after[counter] < before[counter] {
			t.Errorf("%s went backwards: %v -> %v", counter, before[counter], after[counter])
		}
	}
	wantSessions := before["pes_sessions_total"] + 2 // cnn × {EBS, PES}
	if after["pes_sessions_total"] != wantSessions {
		t.Errorf("pes_sessions_total = %v after the repeat campaign, want %v", after["pes_sessions_total"], wantSessions)
	}
	if after["pes_cache_hits_total"] < before["pes_cache_hits_total"]+2 {
		t.Errorf("repeat campaign moved pes_cache_hits_total only %v -> %v, want +2",
			before["pes_cache_hits_total"], after["pes_cache_hits_total"])
	}
	if after["pes_unique_runs_total"] != before["pes_unique_runs_total"] {
		t.Errorf("repeat campaign re-simulated: unique runs %v -> %v",
			before["pes_unique_runs_total"], after["pes_unique_runs_total"])
	}
	if after["pes_session_seconds_count"] != after["pes_sessions_total"] {
		t.Errorf("session histogram count %v != sessions counter %v after repeat",
			after["pes_session_seconds_count"], after["pes_sessions_total"])
	}
	// The first scrape went through the timed handler, so the second one
	// must see the /metrics route histogram populated.
	if got := after[`pes_http_request_duration_seconds_count{route="/metrics"}`]; got < 1 {
		t.Errorf("HTTP latency histogram for /metrics has count %v, want >= 1", got)
	}
}

// taggedFields maps the series key of every metric-tagged field of struct
// type t (walked the way obs.Snapshot walks it) to the field's JSON path
// below prefix.
func taggedFields(t reflect.Type, prefix []string, out map[string][]string) {
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		ft := f.Type
		if ft.Kind() == reflect.Pointer {
			ft = ft.Elem()
		}
		path := prefix
		if !f.Anonymous {
			name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
			if name == "" {
				name = f.Name
			}
			path = append(prefix[:len(prefix):len(prefix)], name)
		}
		tag, tagged := f.Tag.Lookup("metric")
		switch {
		case tag == "-":
		case !tagged && ft.Kind() == reflect.Struct:
			taggedFields(ft, path, out)
		case tagged:
			family, labels, _ := strings.Cut(tag, ",")
			key := family
			if labels != "" {
				var pairs []string
				for _, kv := range strings.Split(labels, ",") {
					k, v, _ := strings.Cut(kv, "=")
					pairs = append(pairs, k+"="+strconv.Quote(v))
				}
				sort.Strings(pairs)
				key += "{" + strings.Join(pairs, ",") + "}"
			}
			out[key] = path
		}
	}
}

// TestHealthzAgreesWithMetrics runs a campaign on a journaled server
// fronting a coordinator and then checks the two encodings of its counters
// against each other: every metric-tagged /healthz field equals its
// /metrics sample, and every counter and gauge series on /metrics is such a
// field — /metrics has no counter that /healthz does not report.
func TestHealthzAgreesWithMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("server tests train a predictor")
	}
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	coord, err := cluster.New(cluster.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	cfg := smallConfig()
	cfg.Experiments.Store = st
	cfg.Cluster = coord
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	jst, err := submitStatus(s, Campaign{Apps: []string{"cnn"}, Schedulers: []string{"EBS", "PES"}})
	if err != nil {
		t.Fatal(err)
	}
	if got := pollTerminal(t, s, jst.ID); got.Status != StatusDone {
		t.Fatalf("campaign %s: %s (%s)", got.ID, got.Status, got.Error)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// The journal's terminal record may land just after the status turns
	// done; read until /healthz is the same on both sides of the scrape.
	var healthBody string
	var samples map[string]float64
	for i := 0; ; i++ {
		healthBody = getBody(t, ts.URL+"/healthz")
		samples = scrapeMetrics(t, s.Handler())
		if getBody(t, ts.URL+"/healthz") == healthBody {
			break
		}
		if i == 50 {
			t.Fatal("/healthz kept changing while the server was idle")
		}
		time.Sleep(10 * time.Millisecond)
	}
	var doc map[string]any
	if err := json.Unmarshal([]byte(healthBody), &doc); err != nil {
		t.Fatal(err)
	}

	// The three snapshots the server registers: the runner's, the
	// coordinator's and the /healthz body's own fields.
	fields := make(map[string][]string)
	taggedFields(reflect.TypeFor[batch.Stats](), []string{"stats"}, fields)
	taggedFields(reflect.TypeFor[cluster.Stats](), []string{"cluster"}, fields)
	taggedFields(reflect.TypeFor[health](), nil, fields)
	if _, ok := fields["pes_campaign_queue_depth"]; !ok {
		t.Fatal("/healthz has no queue_depth field tagged pes_campaign_queue_depth")
	}
	for key, path := range fields {
		var v any = doc
		for _, p := range path {
			if m, ok := v.(map[string]any); ok {
				v = m[p]
			} else {
				v = nil
			}
		}
		got, inMetrics := samples[key]
		switch v := v.(type) {
		case nil:
			if inMetrics {
				t.Errorf("%s = %v on /metrics, but /healthz has no %s", key, got, strings.Join(path, "."))
			}
			continue
		case bool:
			want := 0.0
			if v {
				want = 1
			}
			if got != want || !inMetrics {
				t.Errorf("%s = %v (present %v), /healthz %s = %v", key, got, inMetrics, strings.Join(path, "."), v)
			}
		case float64:
			if got != v || !inMetrics {
				t.Errorf("%s = %v (present %v), /healthz %s = %v", key, got, inMetrics, strings.Join(path, "."), v)
			}
		default:
			t.Errorf("/healthz %s is %T, want a number or bool", strings.Join(path, "."), v)
		}
	}

	// Coverage: every non-histogram series is one of the tagged fields.
	histograms := make(map[string]bool)
	for _, line := range strings.Split(getBody(t, ts.URL+"/metrics"), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[1] == "TYPE" && f[3] == "histogram" {
			histograms[f[2]] = true
		}
	}
	counted := 0
	for key := range samples {
		family, _, _ := strings.Cut(key, "{")
		base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(family, "_bucket"), "_sum"), "_count")
		if histograms[base] {
			continue
		}
		counted++
		if _, ok := fields[key]; !ok {
			t.Errorf("/metrics series %s has no /healthz field", key)
		}
	}
	if counted < 40 {
		t.Errorf("only %d counter/gauge series on /metrics, want the runner, store, artifact, cluster and server families", counted)
	}
	if t.Failed() {
		t.Logf("/healthz: %s", healthBody)
	}
}

// TestTraceEndpointTimeline gates GET /v1/campaigns/{id}/trace on the local
// execution path: a deterministic trace ID minted from the campaign ID, a
// queue-wait span from admission, and the runner's simulate and solve spans
// labeled with the local lane — all stamped with the same trace ID.
func TestTraceEndpointTimeline(t *testing.T) {
	s := testServer(t)
	st, err := submitStatus(s, Campaign{Apps: []string{"cnn"}, Schedulers: []string{"EBS"}})
	if err != nil {
		t.Fatal(err)
	}
	if got := pollTerminal(t, s, st.ID); got.Status != StatusDone {
		t.Fatalf("campaign %s: %s (%s)", got.ID, got.Status, got.Error)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	var tr TraceResponse
	getJSON(t, ts.URL+"/v1/campaigns/"+st.ID+"/trace", &tr)
	if tr.ID != st.ID || tr.Status != StatusDone {
		t.Errorf("trace header = %s/%s, want %s/done", tr.ID, tr.Status, st.ID)
	}
	if want := obs.MintTraceID(st.ID); tr.TraceID != want {
		t.Errorf("trace ID %q, want the deterministic mint %q", tr.TraceID, want)
	}
	names := make(map[string]int)
	for _, sp := range tr.Spans {
		names[sp.Name]++
		if sp.TraceID != tr.TraceID {
			t.Errorf("span %s carries trace ID %q, want %q", sp.Name, sp.TraceID, tr.TraceID)
		}
		if sp.DurUS < 0 {
			t.Errorf("span %s has negative duration %d", sp.Name, sp.DurUS)
		}
		if (sp.Name == "simulate" || sp.Name == "solve") && sp.Worker != "local" {
			t.Errorf("span %s labeled worker %q, want local", sp.Name, sp.Worker)
		}
	}
	if names["queue_wait"] != 1 || names["simulate"] != 1 || names["solve"] != 1 {
		t.Errorf("span names %v, want one queue_wait, one simulate and one solve", names)
	}

	resp, err := http.Get(ts.URL + "/v1/campaigns/zzz/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("trace of unknown campaign = %d, want 404", resp.StatusCode)
	}
}

// TestTraceTimelineStableAcrossJournalResume asserts the trace contract the
// journal relies on: a resumed campaign keeps its trace identity (the ID is
// minted from the campaign ID, which survives the restart) and serves a
// byte-stable timeline — two fetches of a terminal campaign's trace are
// identical bytes, because the canonical span order is deterministic.
func TestTraceTimelineStableAcrossJournalResume(t *testing.T) {
	if testing.Short() {
		t.Skip("server tests train a predictor")
	}
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig()
	cfg.JobWorkers = 1
	cfg.DrainTimeout = time.Millisecond
	cfg.Experiments.Store = st
	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 3; i++ {
		jst, err := submitStatus(s1, Campaign{Apps: []string{"cnn"}, Schedulers: []string{"EBS", "Ondemand"}})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, jst.ID)
	}
	s1.Close()
	st.Close()

	st2, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	cfg2 := smallConfig()
	cfg2.Experiments.Store = st2
	s2, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Resumed() == 0 {
		t.Skip("every campaign finished inside the drain window; nothing resumed")
	}
	ts := httptest.NewServer(s2.Handler())
	defer ts.Close()
	resumedTraces := 0
	for _, id := range ids {
		if _, ok := s2.jobByID(id); !ok {
			continue // finished pre-drain, journaled terminal, not resumed
		}
		if got := pollTerminal(t, s2, id); got.Status != StatusDone {
			t.Fatalf("resumed campaign %s: %s (%s)", id, got.Status, got.Error)
		}
		first := getBody(t, ts.URL+"/v1/campaigns/"+id+"/trace")
		second := getBody(t, ts.URL+"/v1/campaigns/"+id+"/trace")
		if first != second {
			t.Errorf("trace of %s is not byte-stable across fetches:\n%s\nvs\n%s", id, first, second)
		}
		var tr TraceResponse
		getJSON(t, ts.URL+"/v1/campaigns/"+id+"/trace", &tr)
		if want := obs.MintTraceID(id); tr.TraceID != want {
			t.Errorf("resumed campaign %s trace ID %q, want %q (identity must survive the restart)", id, tr.TraceID, want)
		}
		if len(tr.Spans) == 0 {
			t.Errorf("resumed campaign %s has an empty timeline", id)
		}
		resumedTraces++
	}
	if resumedTraces == 0 {
		t.Error("no resumed campaign was still queryable; the test proved nothing")
	}
}

// getJSON fetches url and decodes its 200 JSON body into v.
func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	if err := json.Unmarshal([]byte(getBody(t, url)), v); err != nil {
		t.Fatalf("decoding %s: %v", url, err)
	}
}

// getBody fetches url and returns the raw body, failing on non-200.
func getBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d, want 200", url, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

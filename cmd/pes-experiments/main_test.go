package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/server"
)

// goldenFig2 pins the full stdout of a small fixed-seed invocation. Fig. 2
// replays a hand-built four-event sequence, so its values depend only on the
// platform model and the engine — any diff means observable behaviour
// changed.
const goldenFig2 = `== fig2: Representative 4-event sequence (per-event latency ms, violations, energy mJ) ==
                         E1 ms           E2 ms           E3 ms           E4 ms      violations       energy mJ
--------------------------------------------------------------------------------------------------------------
Interactive           1552.174         443.733         214.288          32.906           1.000        7975.753
EBS                   1611.275         427.322         197.878          23.767           1.000        7708.132
Oracle                2813.889           8.333         220.776           8.333           0.000        4211.129
note: paper: OS and EBS violate deadlines on E2/E3 (and E4 for OS); the oracle meets all four and cuts energy by ~1/4 vs EBS

`

func TestRunGoldenFig2(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the predictor")
	}
	var out, errOut bytes.Buffer
	args := []string{"-fig", "fig2", "-traces", "1", "-train", "2", "-seed", "1", "-parallel", "1"}
	if err := run(args, &out, &errOut); err != nil {
		t.Fatalf("run: %v", err)
	}
	if got := out.String(); got != goldenFig2 {
		t.Errorf("output drifted from golden.\n--- got ---\n%s--- want ---\n%s", got, goldenFig2)
	}
	if !strings.Contains(errOut.String(), "completed 1 experiment(s)") {
		t.Errorf("stderr missing the runner statistics line, got %q", errOut.String())
	}
}

func TestRunErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-fig", "nosuchfig", "-traces", "1", "-train", "2"},
		{"-nosuchflag"},
	} {
		var out, errOut bytes.Buffer
		if err := run(args, &out, &errOut); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

// TestFigureNamesResolveAlikeOnCLIAndServer checks that the figure table is
// the one name resolver: every canonical name and alias selects the same
// figure through -fig and through GET /v1/figures/{name}, and an unknown name
// is an error on the command line and a 404 from the server.
func TestFigureNamesResolveAlikeOnCLIAndServer(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the predictor")
	}
	canonical := map[string]string{
		"fig2": "fig2", "fig3": "fig3", "table1": "table1", "fig8": "fig8",
		"fig9": "fig9", "fig10": "fig10", "overhead": "overhead", "sec6.3": "overhead",
		"fig11": "fig11", "fig12": "fig12", "fig13": "fig13", "fig14": "fig14",
		"ablation": "ablation", "nodom": "ablation", "tx2": "tx2", "otherdevice": "tx2",
	}
	var names []string // canonical names first, then aliases
	inTable := 0
	for _, f := range experiments.Figures() {
		names = append(names, f.Name)
		inTable += 1 + len(f.Aliases)
	}
	for _, f := range experiments.Figures() {
		names = append(names, f.Aliases...)
	}
	names = append(names, "FIG11", "Sec6.3") // lookups ignore case
	if inTable != len(canonical) {
		t.Errorf("figure table holds %d names, want %d", inTable, len(canonical))
	}

	srv, err := server.New(server.Config{
		Experiments: experiments.Config{TrainTracesPerApp: 2, EvalTracesPerApp: 1, Parallel: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cliHeading := func(name string) string {
		t.Helper()
		var out, errOut bytes.Buffer
		if err := run([]string{"-fig", name, "-traces", "1", "-train", "2", "-parallel", "1"}, &out, &errOut); err != nil {
			t.Fatalf("-fig %s: %v", name, err)
		}
		heading, _, _ := strings.Cut(out.String(), "\n")
		return heading
	}
	serverHeading := func(name string) string {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/figures/" + name)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /v1/figures/%s: status %d", name, resp.StatusCode)
		}
		var tab experiments.Table
		if err := json.NewDecoder(resp.Body).Decode(&tab); err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("== %s: %s ==", tab.ID, tab.Title)
	}

	headings := make(map[string]string) // canonical name -> rendered heading
	seen := make(map[string]string)     // rendered heading -> canonical name
	for _, name := range names {
		want, ok := canonical[strings.ToLower(name)]
		if !ok {
			t.Errorf("figure table has unexpected name %q", name)
			continue
		}
		if f, err := experiments.LookupFigure(name); err != nil || f.Name != want {
			t.Errorf("LookupFigure(%q) = %q, %v; want %q", name, f.Name, err, want)
		}
		cli, srvH := cliHeading(name), serverHeading(name)
		if cli != srvH {
			t.Errorf("%s: -fig prints %q, the server serves %q", name, cli, srvH)
		}
		if h, ok := headings[want]; !ok {
			headings[want] = cli
			if other, dup := seen[cli]; dup {
				t.Errorf("%s and %s render the same figure %q", other, want, cli)
			}
			seen[cli] = want
		} else if cli != h {
			t.Errorf("%s: resolves to %q, want %s's %q", name, cli, want, h)
		}
	}

	var out, errOut bytes.Buffer
	if err := run([]string{"-fig", "fig99"}, &out, &errOut); err == nil {
		t.Error("-fig fig99 succeeded, want an error")
	}
	resp, err := http.Get(ts.URL + "/v1/figures/fig99")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /v1/figures/fig99: status %d, want 404", resp.StatusCode)
	}
}

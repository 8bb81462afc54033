package main

import (
	"bytes"
	"errors"
	"flag"
	"strings"
	"testing"
	"time"
)

// goldenUsage pins the full -h output of the command: the flag set is the
// service's operator interface, so any drift here is an interface change.
const goldenUsage = `Usage of pes-serve:
  -addr string
    	listen address (default ":8080")
  -advertise string
    	address the coordinator reaches this worker at (default: derived from -addr)
  -cache-max-entries int
    	LRU bound on the session memo cache and artifact store (0 = unbounded)
  -chaos string
    	deterministic fault-injection spec for resilience testing, e.g. seed=1,fault=0.05,torn=0.02,latency=0.1,latency_max=20ms,ping=0.05,short_write=0.01 (empty = off; never set in production)
  -cluster
    	run as a cluster coordinator even with no static -workers (workers join via -coordinator registration)
  -coordinator string
    	coordinator URL this worker registers with on startup (worker mode only)
  -debug-addr string
    	listen address for the pprof/expvar debug server (empty = disabled; bind loopback only, profiles stop the world)
  -drain duration
    	graceful-shutdown deadline for running campaigns when -store journals them; unfinished campaigns resume on the next boot (default 30s)
  -jobs int
    	campaigns executed concurrently (default 2)
  -log-format string
    	structured log format, text or json (logs go to stderr; stdout stays the human banner channel) (default "text")
  -parallel int
    	simulation worker-pool size (0 = number of CPUs)
  -seed int
    	harness seed (default 1)
  -store string
    	persistent store directory: session results, traces and trained models survive restarts (empty = in-memory only; one process per directory)
  -store-sync int
    	fsync the -store log every n record writes; campaign terminal states always fsync when set (0 = rely on the OS page cache)
  -traces int
    	evaluation traces per application (figure endpoints) (default 3)
  -train int
    	training traces per seen application (default 8)
  -worker
    	run as a cluster worker (serve the shard API instead of the campaign API)
  -workers string
    	comma-separated cluster worker addresses (host:port) statically seeding the membership (empty = in-process execution unless -cluster)
`

func TestRunGoldenUsage(t *testing.T) {
	var out, errOut bytes.Buffer
	err := run([]string{"-h"}, &out, &errOut)
	if !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("run(-h) = %v, want flag.ErrHelp", err)
	}
	if got := errOut.String(); got != goldenUsage {
		t.Errorf("usage drifted from golden.\n--- got ---\n%s--- want ---\n%s", got, goldenUsage)
	}
	if out.Len() != 0 {
		t.Errorf("usage must go to stderr, stdout got %q", out.String())
	}
}

func TestParseArgsValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string // substring of the error
	}{
		{"bad flag", []string{"-nosuchflag"}, "flag provided but not defined"},
		{"empty addr", []string{"-addr", ""}, "-addr"},
		{"zero traces", []string{"-traces", "0"}, "-traces"},
		{"zero train", []string{"-train", "0"}, "-train"},
		{"negative parallel", []string{"-parallel", "-1"}, "-parallel"},
		{"zero jobs", []string{"-jobs", "0"}, "-jobs"},
		{"negative cache bound", []string{"-cache-max-entries", "-1"}, "-cache-max-entries"},
		{"worker and workers", []string{"-worker", "-workers", "localhost:9001"}, "mutually exclusive"},
		{"worker and cluster", []string{"-worker", "-cluster"}, "mutually exclusive"},
		{"coordinator without worker", []string{"-coordinator", "localhost:8080"}, "-coordinator requires -worker"},
		{"advertise without coordinator", []string{"-worker", "-advertise", "localhost:9001"}, "-advertise requires -coordinator"},
		{"empty worker address", []string{"-workers", "localhost:9001,,localhost:9002"}, "empty address"},
		{"negative store-sync", []string{"-store", "/tmp/x", "-store-sync", "-1"}, "-store-sync"},
		{"store-sync without store", []string{"-store-sync", "8"}, "requires -store"},
		{"zero drain", []string{"-drain", "0s"}, "-drain"},
		{"bad log format", []string{"-log-format", "xml"}, "-log-format"},
		{"bad chaos key", []string{"-chaos", "explode=1"}, "unknown spec key"},
		{"bad chaos probability", []string{"-chaos", "fault=1.5"}, "outside [0,1]"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var errOut bytes.Buffer
			if _, err := parseArgs(c.args, &errOut); err == nil {
				t.Fatalf("parseArgs(%v) succeeded, want error", c.args)
			} else if !strings.Contains(err.Error(), c.want) {
				t.Errorf("parseArgs(%v) error %q does not mention %q", c.args, err, c.want)
			}
		})
	}
}

func TestParseArgsDefaults(t *testing.T) {
	var errOut bytes.Buffer
	cfg, err := parseArgs(nil, &errOut)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.addr != ":8080" || cfg.jobs != 2 {
		t.Errorf("unexpected defaults: %+v", cfg)
	}
	if cfg.exp.EvalTracesPerApp != 3 || cfg.exp.TrainTracesPerApp != 8 || cfg.exp.Seed != 1 {
		t.Errorf("unexpected experiment defaults: %+v", cfg.exp)
	}
	if cfg.worker || cfg.workers != nil || cfg.exp.CacheMaxEntries != 0 {
		t.Errorf("cluster/cache defaults not zero: %+v", cfg)
	}
	if cfg.storeSync != 0 || cfg.drain != 30*time.Second || cfg.chaos.Enabled() {
		t.Errorf("durability defaults wrong: sync=%d drain=%s chaos=%+v", cfg.storeSync, cfg.drain, cfg.chaos)
	}
}

func TestParseArgsDurability(t *testing.T) {
	var errOut bytes.Buffer
	cfg, err := parseArgs([]string{"-store", "/tmp/pes", "-store-sync", "64", "-drain", "5s",
		"-chaos", "seed=9,fault=0.1,latency=0.2,latency_max=5ms"}, &errOut)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.storeSync != 64 || cfg.drain != 5*time.Second {
		t.Errorf("sync=%d drain=%s, want 64/5s", cfg.storeSync, cfg.drain)
	}
	if !cfg.chaos.Enabled() || cfg.chaos.Seed != 9 || cfg.chaos.FaultP != 0.1 || cfg.chaos.MaxLatency != 5*time.Millisecond {
		t.Errorf("chaos config not parsed: %+v", cfg.chaos)
	}
}

func TestParseArgsClusterModes(t *testing.T) {
	var errOut bytes.Buffer
	cfg, err := parseArgs([]string{"-workers", " localhost:9001, localhost:9002 ", "-cache-max-entries", "512"}, &errOut)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.workers) != 2 || cfg.workers[0] != "localhost:9001" || cfg.workers[1] != "localhost:9002" {
		t.Errorf("worker list = %q, want the two trimmed addresses", cfg.workers)
	}
	if cfg.exp.CacheMaxEntries != 512 {
		t.Errorf("CacheMaxEntries = %d, want 512", cfg.exp.CacheMaxEntries)
	}
	cfg, err = parseArgs([]string{"-worker", "-addr", ":9001"}, &errOut)
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.worker || cfg.addr != ":9001" {
		t.Errorf("worker mode not parsed: %+v", cfg)
	}
	// A bare ":port" listen address advertises localhost by default; an
	// explicit -advertise wins.
	if cfg.advertise != "localhost:9001" {
		t.Errorf("derived advertise = %q, want localhost:9001", cfg.advertise)
	}
	cfg, err = parseArgs([]string{"-worker", "-addr", ":9001", "-coordinator", "localhost:8080", "-advertise", "10.0.0.7:9001"}, &errOut)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.coordinator != "localhost:8080" || cfg.advertise != "10.0.0.7:9001" {
		t.Errorf("registration flags not parsed: %+v", cfg)
	}
	// Coordinator mode with no static seed.
	cfg, err = parseArgs([]string{"-cluster"}, &errOut)
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.clusterMode || len(cfg.workers) != 0 {
		t.Errorf("cluster mode not parsed: %+v", cfg)
	}
}

// TestNewLogger pins the two structured-log formats: -log-format=json emits
// one JSON object per record, text emits key=value pairs, and both carry the
// message.
func TestNewLogger(t *testing.T) {
	var buf bytes.Buffer
	newLogger("json", &buf).Info("boot", "addr", ":8080")
	line := strings.TrimSpace(buf.String())
	if !strings.HasPrefix(line, "{") || !strings.Contains(line, `"msg":"boot"`) || !strings.Contains(line, `"addr":":8080"`) {
		t.Errorf("json logger emitted %q", line)
	}
	buf.Reset()
	newLogger("text", &buf).Info("boot", "addr", ":8080")
	line = strings.TrimSpace(buf.String())
	if strings.HasPrefix(line, "{") || !strings.Contains(line, "msg=boot") {
		t.Errorf("text logger emitted %q", line)
	}
}

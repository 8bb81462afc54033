// Package chaos is a seeded, deterministic fault injector for the PES
// service: it wraps the cluster Transport/Pinger (injected latency, worker
// 5xx/transport errors, torn shard responses, failed health probes) and the
// store's log file (short writes, crash-at-record-N) so the resilience
// machinery — retry budgets, backoff, journal resume, torn-tail recovery —
// is exercised by tests and CI smokes instead of waiting for production to
// exercise it first.
//
// Determinism: a shard dispatch's rolls are a function of the dispatch
// itself — the seed, the worker, the chunk's first memo key and how often
// that worker has been sent that chunk before — not of the order in which
// concurrent dispatches reach the injector; health probes are keyed the same
// way on the worker and the probe count. The store's write faults come from
// one seeded PRNG, which a single writer's op sequence replays identically.
//
// The injector is wired in two places: `pes-serve -chaos SPEC` (hidden flag
// for the CI chaos smoke) wraps the coordinator transport and, with
// `-store`, the store log; tests construct Injectors directly.
package chaos

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Config selects which faults to inject and how often. The zero value
// injects nothing.
type Config struct {
	// Seed seeds the injector's PRNG. Zero means seed 1 (the injector is
	// always deterministic; there is no "random seed" mode — pick one).
	Seed int64

	// FaultP is the probability a RunShard call fails with an injected
	// transport error (the coordinator classifies it a worker fault:
	// exclude + re-route). [0,1].
	FaultP float64
	// TornP is the probability a RunShard response is torn: the worker ran
	// the shard, but the response loses its tail results (the coordinator's
	// length check classifies it a worker fault). [0,1].
	TornP float64
	// LatencyP is the probability a RunShard call is delayed by a uniform
	// duration in (0, MaxLatency]. [0,1].
	LatencyP float64
	// MaxLatency bounds injected latency. Defaults to 50ms when LatencyP is
	// set and MaxLatency is not.
	MaxLatency time.Duration
	// PingP is the probability a health probe fails. [0,1].
	PingP float64

	// ShortWriteP is the probability a store log write is cut short: a
	// prefix of the record lands on disk and the write errors — the store
	// sees a failed Put, a reopened log sees a torn tail. [0,1].
	ShortWriteP float64
	// CrashAfter, when > 0, makes the wrapped log file "crash" after that
	// many more record writes: the crashing write persists only a prefix,
	// and every write or sync after it fails. Arm it late with
	// Injector.ArmCrashAfter to skip setup-time writes.
	CrashAfter int64
}

// Enabled reports whether the config injects anything at all.
func (c Config) Enabled() bool {
	return c.FaultP > 0 || c.TornP > 0 || c.LatencyP > 0 || c.PingP > 0 ||
		c.ShortWriteP > 0 || c.CrashAfter > 0
}

// ParseSpec parses the -chaos flag format: comma-separated key=value pairs
//
//	seed=42,fault=0.05,torn=0.02,latency=0.2,latency_max=20ms,ping=0.1,short_write=0.01,crash_after=40
//
// Unknown keys are an error (a typoed fault that silently injects nothing
// would defeat the point of a chaos smoke).
func ParseSpec(spec string) (Config, error) {
	var cfg Config
	if strings.TrimSpace(spec) == "" {
		return cfg, nil
	}
	for _, part := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return cfg, fmt.Errorf("chaos: bad spec element %q (want key=value)", part)
		}
		var err error
		switch k {
		case "seed":
			cfg.Seed, err = strconv.ParseInt(v, 10, 64)
		case "fault":
			cfg.FaultP, err = parseProb(v)
		case "torn":
			cfg.TornP, err = parseProb(v)
		case "latency":
			cfg.LatencyP, err = parseProb(v)
		case "latency_max":
			cfg.MaxLatency, err = time.ParseDuration(v)
		case "ping":
			cfg.PingP, err = parseProb(v)
		case "short_write":
			cfg.ShortWriteP, err = parseProb(v)
		case "crash_after":
			cfg.CrashAfter, err = strconv.ParseInt(v, 10, 64)
		default:
			return cfg, fmt.Errorf("chaos: unknown spec key %q", k)
		}
		if err != nil {
			return cfg, fmt.Errorf("chaos: bad value for %q: %v", k, err)
		}
	}
	return cfg, nil
}

func parseProb(v string) (float64, error) {
	p, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, err
	}
	if p < 0 || p > 1 {
		return 0, fmt.Errorf("probability %v outside [0,1]", p)
	}
	return p, nil
}

// Stats counts the faults an Injector has inflicted.
type Stats struct {
	// ShardFaults counts RunShard calls failed with an injected error.
	ShardFaults int64 `json:"shard_faults" metric:"pes_chaos_shard_faults_total" help:"RunShard calls failed with an injected error."`
	// TornResponses counts RunShard responses that lost their tail.
	TornResponses int64 `json:"torn_responses" metric:"pes_chaos_torn_responses_total" help:"RunShard responses that lost their tail."`
	// Delays counts injected latency sleeps.
	Delays int64 `json:"delays" metric:"pes_chaos_delays_total" help:"Injected latency sleeps."`
	// PingFaults counts failed health probes.
	PingFaults int64 `json:"ping_faults" metric:"pes_chaos_ping_faults_total" help:"Health probes failed by injection."`
	// ShortWrites counts store log writes cut short.
	ShortWrites int64 `json:"short_writes" metric:"pes_chaos_short_writes_total" help:"Store log writes cut short by injection."`
	// Crashed reports whether the crash-at-record-N trigger has fired.
	Crashed bool `json:"crashed" metric:"pes_chaos_crashed" help:"1 when the crash-at-record-N trigger has fired."`
}

// Injector injects the faults a Config selects. One Injector may wrap any
// number of transports and files; they share the PRNG and the counters.
// Safe for concurrent use.
type Injector struct {
	cfg Config

	mu  sync.Mutex
	rng *rand.Rand // store write faults
	// attempts counts earlier dispatches per (worker, roll key), the last
	// input of a dispatch's rolls.
	attempts map[string]uint64
	writes   int64 // record writes seen by wrapped files
	crashAt  int64 // writes value at which the crash fires; 0 = disarmed
	crashed  bool

	shardFaults   int64
	tornResponses int64
	delays        int64
	pingFaults    int64
	shortWrites   int64
}

// New builds an Injector for cfg. A CrashAfter in cfg arms the crash
// immediately; use ArmCrashAfter to arm it later (e.g. after setup writes).
func New(cfg Config) *Injector {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.LatencyP > 0 && cfg.MaxLatency <= 0 {
		cfg.MaxLatency = 50 * time.Millisecond
	}
	in := &Injector{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed)), attempts: make(map[string]uint64)}
	if cfg.CrashAfter > 0 {
		in.crashAt = cfg.CrashAfter
	}
	return in
}

// ArmCrashAfter makes the wrapped store file crash after n more record
// writes (see Config.CrashAfter). It may be called at any time, including
// after the wrapped file is already in use.
func (in *Injector) ArmCrashAfter(n int64) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.crashAt = in.writes + n
}

// Stats snapshots the injected-fault counters.
func (in *Injector) Stats() Stats {
	in.mu.Lock()
	defer in.mu.Unlock()
	return Stats{
		ShardFaults:   in.shardFaults,
		TornResponses: in.tornResponses,
		Delays:        in.delays,
		PingFaults:    in.pingFaults,
		ShortWrites:   in.shortWrites,
		Crashed:       in.crashed,
	}
}

// rolls returns the uniform samples for one op on worker: a splitmix64
// stream seeded by the injector's seed, the worker, key, and the number of
// earlier ops with the same worker and key.
func (in *Injector) rolls(worker, key string) *rollStream {
	id := worker + "\x00" + key
	in.mu.Lock()
	attempt := in.attempts[id]
	in.attempts[id]++
	in.mu.Unlock()
	h := fnv.New64a()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(in.cfg.Seed))
	h.Write(buf[:])
	h.Write([]byte(id))
	binary.LittleEndian.PutUint64(buf[:], attempt)
	h.Write(buf[:])
	return &rollStream{state: h.Sum64()}
}

// rollStream is a splitmix64 generator of uniform samples in [0,1).
type rollStream struct{ state uint64 }

func (s *rollStream) next() float64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / (1 << 53)
}

// Summary renders the non-zero counters for logs, sorted by name.
func (s Stats) Summary() string {
	parts := map[string]int64{
		"delays":         s.Delays,
		"ping_faults":    s.PingFaults,
		"shard_faults":   s.ShardFaults,
		"short_writes":   s.ShortWrites,
		"torn_responses": s.TornResponses,
	}
	var names []string
	for k, v := range parts {
		if v > 0 {
			names = append(names, k)
		}
	}
	sort.Strings(names)
	var b strings.Builder
	for i, k := range names {
		if i > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%s=%d", k, parts[k])
	}
	if s.Crashed {
		if b.Len() > 0 {
			b.WriteString(" ")
		}
		b.WriteString("crashed=true")
	}
	if b.Len() == 0 {
		return "none"
	}
	return b.String()
}

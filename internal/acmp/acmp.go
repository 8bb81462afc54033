// Package acmp models the Asymmetric Chip-Multiprocessor (ACMP) hardware
// substrate that the PES paper schedules onto.
//
// The model captures exactly the properties the schedulers in the paper care
// about:
//
//   - two heterogeneous core clusters (an out-of-order "big" cluster and an
//     in-order "little" cluster), each with a discrete DVFS frequency ladder;
//   - a per-<core, frequency> active power look-up table, mirroring the
//     offline-measured power model the paper persists to a local file;
//   - the classical DVFS latency law T = Tmem + Ndep/f (Eqn. 1), with an
//     additional per-core CPI factor expressing that an in-order core needs
//     more cycles for the same event work;
//   - the DVFS transition (100 µs) and core-migration (20 µs) overheads the
//     paper charges when the configuration changes.
//
// Two platforms are provided: the Exynos 5410 (ODROID XU+E, the paper's
// primary platform) and the NVIDIA TX2 "Parker" SoC used in the paper's
// "other devices" sensitivity study.
package acmp

import (
	"fmt"
	"math"
	"sort"
	"strconv"

	"repro/internal/simtime"
)

// CoreType identifies one of the two heterogeneous clusters of an ACMP.
type CoreType int

const (
	// LittleCore is the low-performance, energy-conserving in-order cluster
	// (Cortex-A7 on the Exynos 5410).
	LittleCore CoreType = iota
	// BigCore is the high-performance, energy-hungry out-of-order cluster
	// (Cortex-A15 on the Exynos 5410).
	BigCore
)

// String returns the conventional big.LITTLE name of the core type.
func (c CoreType) String() string {
	switch c {
	case LittleCore:
		return "little"
	case BigCore:
		return "big"
	default:
		return "CoreType(" + strconv.Itoa(int(c)) + ")"
	}
}

// Config is one point in the ACMP scheduling space: a <core, frequency>
// tuple, exactly the decision variable of the paper's optimizer.
type Config struct {
	Core    CoreType
	FreqMHz int
}

// String renders the configuration as e.g. "big@1800MHz".
func (c Config) String() string { return fmt.Sprintf("%s@%dMHz", c.Core, c.FreqMHz) }

// IsZero reports whether the configuration is the zero value (no assignment).
func (c Config) IsZero() bool { return c.FreqMHz == 0 }

// Cluster describes one core cluster: its frequency ladder, its active power
// at each frequency, and its CPI factor relative to the big out-of-order
// core (an in-order core retires the same event work in more cycles).
type Cluster struct {
	Core     CoreType
	FreqsMHz []int           // ascending DVFS ladder
	PowerMW  map[int]float64 // active power (mW) per frequency while executing
	CPI      float64         // cycle multiplier relative to the big core
}

// MinFreq returns the lowest frequency of the cluster.
func (cl *Cluster) MinFreq() int { return cl.FreqsMHz[0] }

// MaxFreq returns the highest frequency of the cluster.
func (cl *Cluster) MaxFreq() int { return cl.FreqsMHz[len(cl.FreqsMHz)-1] }

// Platform is a complete ACMP hardware model.
type Platform struct {
	Name string
	// Clusters indexed by core type.
	Little, Big Cluster
	// DVFSLatency is the cost of changing frequency within a cluster.
	DVFSLatency simtime.Duration
	// MigrationLatency is the cost of moving the main thread between
	// clusters.
	MigrationLatency simtime.Duration
	// IdlePowerMW is the platform power draw while the main thread is idle
	// (clusters clock-gated at their lowest operating points).
	IdlePowerMW float64

	configs []Config // cached enumeration
}

// Cluster returns the cluster for the given core type.
func (p *Platform) Cluster(c CoreType) *Cluster {
	if c == BigCore {
		return &p.Big
	}
	return &p.Little
}

// Configs enumerates every <core, frequency> configuration of the platform,
// little cluster first, each cluster in ascending frequency order. The slice
// is cached and must not be mutated by callers.
//
// The cache is not synchronized: populate it from one goroutine (the
// standard constructors do so eagerly; sessions.New forces it for
// hand-built platforms) before sharing the platform across simulation
// workers.
func (p *Platform) Configs() []Config {
	if p.configs == nil {
		var cfgs []Config
		for _, f := range p.Little.FreqsMHz {
			cfgs = append(cfgs, Config{LittleCore, f})
		}
		for _, f := range p.Big.FreqsMHz {
			cfgs = append(cfgs, Config{BigCore, f})
		}
		p.configs = cfgs
	}
	return p.configs
}

// MaxPerformance returns the highest-performance configuration of the
// platform (big cluster at its maximum frequency).
func (p *Platform) MaxPerformance() Config {
	return Config{BigCore, p.Big.MaxFreq()}
}

// MinPerformance returns the lowest-performance configuration of the
// platform (little cluster at its minimum frequency).
func (p *Platform) MinPerformance() Config {
	return Config{LittleCore, p.Little.MinFreq()}
}

// Power returns the active power (mW) drawn while executing on cfg.
// It panics if cfg is not a valid operating point; scheduler code must only
// ever produce valid configurations.
func (p *Platform) Power(cfg Config) float64 {
	pw, ok := p.Cluster(cfg.Core).PowerMW[cfg.FreqMHz]
	if !ok {
		panic(fmt.Sprintf("acmp: %s has no operating point %v", p.Name, cfg))
	}
	return pw
}

// Workload is the hardware-relevant description of one event execution,
// expressed in the terms of the paper's Eqn. 1.
type Workload struct {
	// Tmem is the memory-bound portion of the execution that does not scale
	// with CPU frequency.
	Tmem simtime.Duration
	// Cycles is Ndep: the number of CPU cycles (measured on the big,
	// CPI-reference core) that do not overlap with memory accesses.
	Cycles int64
}

// Latency evaluates the DVFS latency law for the workload on cfg:
//
//	T = Tmem + (Cycles × CPI(core)) / f
//
// with f in MHz so that Cycles/f is directly in microseconds.
func (p *Platform) Latency(w Workload, cfg Config) simtime.Duration {
	cl := p.Cluster(cfg.Core)
	cycles := float64(w.Cycles) * cl.CPI
	compute := cycles / float64(cfg.FreqMHz)
	return w.Tmem + simtime.Duration(math.Ceil(compute))
}

// SwitchOverhead returns the time cost of moving the main thread from one
// configuration to another: a core migration when the cluster changes, plus
// a DVFS transition when the target cluster is not already at the requested
// frequency. Switching from the zero Config (simulation start) is free.
func (p *Platform) SwitchOverhead(from, to Config) simtime.Duration {
	if from.IsZero() || from == to {
		return 0
	}
	var d simtime.Duration
	if from.Core != to.Core {
		d += p.MigrationLatency
		// After a migration the destination cluster must also be brought to
		// the requested operating point.
		d += p.DVFSLatency
		return d
	}
	if from.FreqMHz != to.FreqMHz {
		d += p.DVFSLatency
	}
	return d
}

// EnergyMJ converts an interval of constant power draw into millijoules:
// mW × µs = nJ, so mJ = mW × µs / 1e6.
func EnergyMJ(powerMW float64, d simtime.Duration) float64 {
	return powerMW * float64(d) / 1e6
}

// IdleEnergy returns the energy (mJ) spent idling for duration d.
func (p *Platform) IdleEnergy(d simtime.Duration) float64 {
	return EnergyMJ(p.IdlePowerMW, d)
}

// ladder builds an inclusive arithmetic frequency ladder.
func ladder(lo, hi, step int) []int {
	var fs []int
	for f := lo; f <= hi; f += step {
		fs = append(fs, f)
	}
	sort.Ints(fs)
	return fs
}

// Exynos5410 returns the ACMP model of the Samsung Exynos 5410 SoC on the
// ODROID XU+E board: a Cortex-A15 big cluster at 800–1800 MHz in 100 MHz
// steps and a Cortex-A7 little cluster at 350–600 MHz in 50 MHz steps, the
// DVFS/migration overheads reported in Sec. 6.3, and power tables shaped on
// published Exynos 5410 cluster measurements.
//
// Each power table follows the P = base + k·(f/1 GHz)^α law that holds for
// DVFS operating points (voltage scales with frequency), with (base, k, α)
// given per cluster. The values are written out rather than computed because
// math.Pow's last bit depends on whether the host CPU has FMA, and the
// fingerprint of every session hashes these bits; they are the bits an FMA
// host computes.
func Exynos5410() *Platform {
	littleFreqs := ladder(350, 600, 50)
	bigFreqs := ladder(800, 1800, 100)
	p := &Platform{
		Name: "Exynos5410",
		Little: Cluster{
			Core:     LittleCore,
			FreqsMHz: littleFreqs,
			// base 40 mW, k 350 mW, α 1.6.
			PowerMW: map[int]float64{
				350: 105.2494590198935,
				400: 120.79119473080397,
				450: 137.54568579700083,
				500: 155.45694219262825,
				550: 174.477103893319,
				600: 194.564603791745,
			},
			CPI: 1.9,
		},
		Big: Cluster{
			Core:     BigCore,
			FreqsMHz: bigFreqs,
			// base 180 mW, k 1150 mW, α 1.85.
			PowerMW: map[int]float64{
				800:  941.0519731771457,
				900:  1126.3384431548316,
				1000: 1330,
				1100: 1551.7479122751977,
				1200: 1791.3250008775624,
				1300: 2048.4997415801445,
				1400: 2323.0618556581244,
				1500: 2614.81893000477,
				1600: 2923.5937715871505,
				1700: 3249.2222994113117,
				1800: 3591.55183871882,
			},
			CPI: 1.0,
		},
		DVFSLatency:      100 * simtime.Microsecond,
		MigrationLatency: 20 * simtime.Microsecond,
		IdlePowerMW:      140,
	}
	p.Configs() // populate the cache before the platform is shared
	return p
}

// TX2Parker returns the ACMP model of the NVIDIA Parker SoC on the TX2 board
// used in the paper's "other devices" study: a Cortex-A57 cluster (modelled
// as the big cluster, 500–2000 MHz) and a Denver2-derived efficient cluster
// (modelled as the little cluster, 350–1200 MHz). The 2017-era process gives
// it a flatter power curve than the Exynos 5410. The power tables are
// written out as Exynos5410's are.
func TX2Parker() *Platform {
	littleFreqs := ladder(350, 1200, 50)
	bigFreqs := ladder(500, 2000, 100)
	p := &Platform{
		Name: "TX2Parker",
		Little: Cluster{
			Core:     LittleCore,
			FreqsMHz: littleFreqs,
			// base 50 mW, k 260 mW, α 1.5.
			PowerMW: map[int]float64{
				350:  103.83632602620649,
				400:  115.7753753315023,
				450:  128.48598601024264,
				500:  141.92388155425118,
				550:  156.051638365468,
				600:  170.83708040167141,
				650:  186.2521559462455,
				700:  202.27212482920174,
				750:  218.87495373796554,
				800:  236.04085572798252,
				850:  253.7519325061728,
				900:  271.99189174382025,
				950:  290.7458203167814,
				1000: 310,
				1050: 329.7417559106971,
				1100: 349.9593305766634,
				1150: 370.64177831343187,
				1200: 391.77887588322363,
			},
			CPI: 1.5,
		},
		Big: Cluster{
			Core:     BigCore,
			FreqsMHz: bigFreqs,
			// base 150 mW, k 820 mW, α 1.8.
			PowerMW: map[int]float64{
				500:  385.4831627743922,
				600:  476.95358452689516,
				700:  581.509463177126,
				800:  698.7516371999003,
				900:  828.3445957040099,
				1000: 970,
				1100: 1123.4657714595996,
				1200: 1288.5185087263023,
				1300: 1464.9580149398716,
				1400: 1652.603224945821,
				1500: 1851.2890966837876,
				1600: 2060.864187496174,
				1700: 2281.188729869397,
				1800: 2512.1330795960293,
				1900: 2753.576447082728,
				2000: 3005.4058476112873,
			},
			CPI: 0.85,
		},
		DVFSLatency:      100 * simtime.Microsecond,
		MigrationLatency: 20 * simtime.Microsecond,
		IdlePowerMW:      170,
	}
	p.Configs() // populate the cache before the platform is shared
	return p
}

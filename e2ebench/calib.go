package main

import (
	"slices"
	"strconv"
	"time"
)

// calibrationRefUS is the calibration kernel's median time, in µs, over
// runs on the 2-vCPU machine the bounds in BENCHMARK.json were set on.
// Timing metrics are scaled to a host on which the kernel takes this long.
const calibrationRefUS = 300

const (
	calKeys   = 2048
	calFloats = 1024
)

// calibrator times a fixed compute kernel — sorting integers and formatting
// floats, work of the kind the service's simulation and JSON encoding do —
// to measure how fast the host is running at the moment. The kernel is the
// benchmark's own code, so no change to the program moves it; only the host
// does. Apart from recording its times it allocates nothing, so it adds
// almost no garbage collection work to what the run measures.
//
// A kernel that also made scattered reads over a buffer larger than a
// core's caches tracked the program worse: across runs its time moved about
// two thirds as much as the program's, while this kernel's moves about as
// much.
type calibrator struct {
	keys    []int
	scratch []int
	text    []byte
	// samples are the kernel times taken so far, in µs.
	samples []float64
}

func newCalibrator() *calibrator {
	c := &calibrator{
		keys:    make([]int, calKeys),
		scratch: make([]int, calKeys),
		text:    make([]byte, 0, 32*calFloats),
	}
	x := uint64(88172645463325252)
	for i := range c.keys { // xorshift64
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		c.keys[i] = int(x >> 1)
	}
	return c
}

// sample runs the kernel once, records its time and returns it.
func (c *calibrator) sample() time.Duration {
	start := time.Now()
	copy(c.scratch, c.keys)
	slices.Sort(c.scratch)
	c.text = c.text[:0]
	for _, k := range c.keys[:calFloats] {
		c.text = strconv.AppendFloat(c.text, float64(k)*1e-9, 'g', -1, 64)
	}
	d := time.Since(start)
	c.samples = append(c.samples, us(d))
	return d
}

// measure runs the kernel n times and returns how much slower than the
// reference host it ran: the median of the n times over calibrationRefUS.
func (c *calibrator) measure(n int) float64 {
	times := make([]float64, n)
	for i := range times {
		times[i] = us(c.sample())
	}
	return percentile(times, 50) / calibrationRefUS
}

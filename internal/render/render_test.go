package render

import (
	"testing"

	"repro/internal/acmp"
	"repro/internal/simtime"
)

func TestProduceAndDisplayLatency(t *testing.T) {
	cfg := acmp.Config{Core: acmp.BigCore, FreqMHz: 1800}
	start := simtime.Time(100 * simtime.Millisecond)
	finish := simtime.Time(150 * simtime.Millisecond)
	f := Frame{Started: start, Completed: finish, Config: cfg}
	if f.ProductionTime() != 50*simtime.Millisecond {
		t.Errorf("ProductionTime = %v", f.ProductionTime())
	}
	// Latency from a trigger after completion is just the VSync wait.
	trigger := simtime.Time(200 * simtime.Millisecond)
	lat := DisplayLatency(trigger, finish)
	if lat <= 0 || lat > VSyncPeriod {
		t.Errorf("fully speculated latency = %v, want within one VSync period", lat)
	}
	// Latency when the frame completes after the trigger includes the
	// production tail.
	lat2 := DisplayLatency(simtime.Time(120*simtime.Millisecond), finish)
	if lat2 < 30*simtime.Millisecond {
		t.Errorf("latency = %v, want ≥ 30ms", lat2)
	}
}

package chaos

import (
	"context"
	"fmt"
	"time"

	"repro/internal/cluster"
)

// transport injects latency, transport errors and torn responses around an
// inner cluster.Transport.
type transport struct {
	in    *Injector
	inner cluster.Transport
}

// pingerTransport adds the Pinger side when the inner transport has one, so
// wrapping does not grow or shrink the coordinator's health-probe surface.
type pingerTransport struct {
	transport
	pinger cluster.Pinger
}

// WrapTransport returns t with the injector's shard faults in front of it.
// The wrapper implements cluster.Pinger exactly when t does.
func (in *Injector) WrapTransport(t cluster.Transport) cluster.Transport {
	ct := transport{in: in, inner: t}
	if p, ok := t.(cluster.Pinger); ok {
		return &pingerTransport{transport: ct, pinger: p}
	}
	return &ct
}

func (t *transport) RunShard(ctx context.Context, worker string, req cluster.ShardRequest) (cluster.ShardResponse, error) {
	in, cfg := t.in, t.in.cfg
	var key string
	if len(req.Sessions) > 0 {
		key = req.Sessions[0].RouteKey()
	}
	// Every dispatch draws its four rolls in a fixed order, whichever
	// faults are enabled.
	rs := in.rolls(worker, key)
	latency, delay, fault, torn := rs.next(), rs.next(), rs.next(), rs.next()
	if latency < cfg.LatencyP {
		in.count(&in.delays)
		select {
		case <-time.After(time.Duration(delay * float64(cfg.MaxLatency))):
		case <-ctx.Done():
			return cluster.ShardResponse{}, ctx.Err()
		}
	}
	if fault < cfg.FaultP {
		in.count(&in.shardFaults)
		return cluster.ShardResponse{}, fmt.Errorf("chaos: injected transport fault dispatching to %s", worker)
	}
	resp, err := t.inner.RunShard(ctx, worker, req)
	if err != nil {
		return resp, err
	}
	if len(resp.Results) > 0 && torn < cfg.TornP {
		// Drop the response tail: the coordinator's length check turns this
		// into a worker fault and re-routes the whole chunk.
		in.count(&in.tornResponses)
		resp.Results = resp.Results[:len(resp.Results)/2]
	}
	return resp, err
}

// probeKey is the roll key of health probes; no memo key looks like it.
const probeKey = "probe"

func (t *pingerTransport) Ping(ctx context.Context, worker string) error {
	in := t.in
	if in.rolls(worker, probeKey).next() < in.cfg.PingP {
		in.count(&in.pingFaults)
		return fmt.Errorf("chaos: injected probe failure for %s", worker)
	}
	return t.pinger.Ping(ctx, worker)
}

// count bumps one injector counter under the lock.
func (in *Injector) count(c *int64) {
	in.mu.Lock()
	*c++
	in.mu.Unlock()
}

package cluster

import (
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Member sources: how an address entered the membership set.
const (
	// SourceStatic marks a worker seeded by Config.Workers (the -workers
	// flag). Static members are never forgotten — a dead static worker is
	// marked unhealthy and rejoins automatically when its health probe
	// succeeds again.
	SourceStatic = "static"
	// SourceRegistered marks a worker that joined at runtime through
	// Coordinator.Register (the worker's -coordinator flag). Registered
	// members leave through Deregister; like static members they are
	// health-checked and marked unhealthy rather than dropped on failure,
	// so a re-registration (or a passing probe) heals them.
	SourceRegistered = "registered"
)

// Member is one cluster member's externally visible state.
type Member struct {
	// Addr is the worker address ("host:port" or a full URL).
	Addr string `json:"addr"`
	// Source is SourceStatic or SourceRegistered.
	Source string `json:"source"`
	// Healthy reports whether the member currently receives work: probes
	// pass and no dispatch-level failure has been observed since.
	Healthy bool `json:"healthy"`
	// Fails is the current run of consecutive failed health probes.
	Fails int `json:"fails,omitempty"`
	// BackoffUntil, when set, is when the coordinator next re-probes this
	// member. A flapping worker earns jittered exponentially growing gaps
	// (re-routing away from it stays immediate; only the re-probing backs
	// off), so a wedged worker is not hammered with probes it will fail.
	BackoffUntil time.Time `json:"backoff_until,omitempty"`

	// faultStreak counts consecutive failure events (dispatch faults and
	// probe failures) since the last success; it drives the backoff curve.
	faultStreak int
}

// membership is the coordinator's live worker set: a mutable map of members
// plus a consistent-hash ring over the healthy ones, rebuilt on every
// change. Watchers (in-flight runs) are notified of changes through a
// closed-and-replaced channel so a mid-campaign join can start stealing
// work immediately.
type membership struct {
	backoffBase time.Duration // first re-probe gap after a failure
	backoffMax  time.Duration // backoff growth cap

	mu      sync.Mutex
	members map[string]*Member
	ring    *ring         // over healthy member addresses
	watch   chan struct{} // closed on change, then replaced
	rng     *rand.Rand    // backoff jitter; guarded by mu
}

func newMembership(seed []string) *membership {
	m := &membership{
		backoffBase: probeBackoffBase,
		backoffMax:  probeBackoffMax,
		members:     make(map[string]*Member, len(seed)),
		watch:       make(chan struct{}),
		rng:         rand.New(rand.NewSource(time.Now().UnixNano())),
	}
	for _, addr := range seed {
		m.members[addr] = &Member{Addr: addr, Source: SourceStatic, Healthy: true}
	}
	m.rebuildLocked()
	return m
}

// rebuildLocked recomputes the healthy ring and wakes watchers. Caller
// holds m.mu.
func (m *membership) rebuildLocked() {
	healthy := make([]string, 0, len(m.members))
	for addr, mem := range m.members {
		if mem.Healthy {
			healthy = append(healthy, addr)
		}
	}
	sort.Strings(healthy)
	m.ring = newRing(healthy, ringReplicas)
	close(m.watch)
	m.watch = make(chan struct{})
}

// watchCh returns a channel closed at the next membership change.
func (m *membership) watchCh() <-chan struct{} {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.watch
}

// backoffLocked charges one failure to a member's streak and schedules its
// next probe: jittered exponential growth from backoffBase, capped at
// backoffMax. Caller holds m.mu.
func (m *membership) backoffLocked(mem *Member) {
	mem.faultStreak++
	d := m.backoffBase << (mem.faultStreak - 1)
	if d > m.backoffMax || d <= 0 { // <= 0: shift overflow
		d = m.backoffMax
	}
	// Full jitter on the upper half: [d/2, d). Decorrelates coordinators
	// probing the same flapping worker.
	d = d/2 + time.Duration(m.rng.Int63n(int64(d/2)+1))
	mem.BackoffUntil = time.Now().Add(d)
}

// healLocked clears a member's failure history. Caller holds m.mu.
func healLocked(mem *Member) {
	mem.Fails = 0
	mem.faultStreak = 0
	mem.BackoffUntil = time.Time{}
}

// register adds (or heals) a member and reports whether membership changed.
func (m *membership) register(addr, source string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if mem, ok := m.members[addr]; ok {
		if mem.Healthy && mem.Fails == 0 {
			healLocked(mem) // a live re-announce also clears any backoff
			return false
		}
		mem.Healthy = true
		healLocked(mem)
		m.rebuildLocked()
		return true
	}
	m.members[addr] = &Member{Addr: addr, Source: source, Healthy: true}
	m.rebuildLocked()
	return true
}

// deregister removes a member entirely and reports whether it existed.
func (m *membership) deregister(addr string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.members[addr]; !ok {
		return false
	}
	delete(m.members, addr)
	m.rebuildLocked()
	return true
}

// fault records a dispatch-level worker failure: the member is marked
// unhealthy immediately (health probes or a re-registration heal it) and
// its next probe backs off. Reports whether the member transitioned.
func (m *membership) fault(addr string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	mem, ok := m.members[addr]
	if !ok {
		return false
	}
	m.backoffLocked(mem)
	if !mem.Healthy {
		return false
	}
	mem.Healthy = false
	m.rebuildLocked()
	return true
}

// probe records one health-check outcome. A success resets the failure run
// and heals the member; failAfter consecutive failures mark it unhealthy.
// Reports whether the member's health transitioned.
func (m *membership) probe(addr string, ok bool, failAfter int) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	mem, present := m.members[addr]
	if !present {
		return false
	}
	if ok {
		healed := !mem.Healthy
		healLocked(mem)
		if !healed {
			return false
		}
		mem.Healthy = true
		m.rebuildLocked()
		return true
	}
	mem.Fails++
	m.backoffLocked(mem)
	if !mem.Healthy || mem.Fails < failAfter {
		return false
	}
	mem.Healthy = false
	m.rebuildLocked()
	return true
}

// probeTargets returns the member addresses due for a health probe at now
// (sorted), plus how many members were skipped because their backoff window
// has not elapsed.
func (m *membership) probeTargets(now time.Time) (due []string, skipped int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for addr, mem := range m.members {
		if mem.BackoffUntil.After(now) {
			skipped++
			continue
		}
		due = append(due, addr)
	}
	sort.Strings(due)
	return due, skipped
}

// owner returns the healthy member owning the key, skipping excluded
// addresses; ok is false when no eligible member exists.
func (m *membership) owner(key string, excluded map[string]bool) (string, bool) {
	m.mu.Lock()
	r := m.ring
	m.mu.Unlock()
	return r.owner(key, excluded)
}

// healthy returns the healthy member addresses, sorted.
func (m *membership) healthy() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.members))
	for addr, mem := range m.members {
		if mem.Healthy {
			out = append(out, addr)
		}
	}
	sort.Strings(out)
	return out
}

// addrs returns every member address (healthy or not), sorted.
func (m *membership) addrs() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.members))
	for addr := range m.members {
		out = append(out, addr)
	}
	sort.Strings(out)
	return out
}

// isHealthy reports whether addr is a current healthy member.
func (m *membership) isHealthy(addr string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	mem, ok := m.members[addr]
	return ok && mem.Healthy
}

// snapshot returns value copies of every member, sorted by address.
func (m *membership) snapshot() []Member {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Member, 0, len(m.members))
	for _, mem := range m.members {
		out = append(out, *mem)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// ring is a consistent-hash ring: replicas virtual nodes per member, placed
// by FNV-64a. Ownership of a key is the first virtual node clockwise from
// the key's hash whose member is not excluded, so removing a member only
// moves the sessions it owned.
type ring struct {
	hashes []uint64
	addrs  []string // member address per virtual node, aligned with hashes
}

// hash64 hashes a string for ring placement. Raw FNV-64a keeps most of the
// difference between similar strings (worker addresses, route keys that
// share long prefixes) in the low bits, which clusters a worker's virtual
// nodes into contiguous runs and starves the others; a murmur3-style
// finalizer scatters those bits across the whole ring.
func hash64(s string) uint64 {
	h := fnv.New64a()
	_, _ = io.WriteString(h, s)
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

func newRing(addrs []string, replicas int) *ring {
	type vnode struct {
		hash uint64
		addr string
	}
	vnodes := make([]vnode, 0, len(addrs)*replicas)
	for _, a := range addrs {
		for r := 0; r < replicas; r++ {
			vnodes = append(vnodes, vnode{hash: hash64(a + "#" + strconv.Itoa(r)), addr: a})
		}
	}
	sort.Slice(vnodes, func(i, j int) bool {
		if vnodes[i].hash != vnodes[j].hash {
			return vnodes[i].hash < vnodes[j].hash
		}
		return vnodes[i].addr < vnodes[j].addr
	})
	r := &ring{hashes: make([]uint64, len(vnodes)), addrs: make([]string, len(vnodes))}
	for i, v := range vnodes {
		r.hashes[i] = v.hash
		r.addrs[i] = v.addr
	}
	return r
}

// owner returns the member owning the key, skipping excluded addresses; ok
// is false when the ring is empty or every member is excluded.
func (r *ring) owner(key string, excluded map[string]bool) (string, bool) {
	if len(r.hashes) == 0 {
		return "", false
	}
	h := hash64(key)
	start := sort.Search(len(r.hashes), func(i int) bool { return r.hashes[i] >= h })
	for off := 0; off < len(r.hashes); off++ {
		a := r.addrs[(start+off)%len(r.hashes)]
		if !excluded[a] {
			return a, true
		}
	}
	return "", false
}

// validateSeed checks a static worker list for empty and duplicate
// addresses.
func validateSeed(workers []string) error {
	seen := map[string]bool{}
	for _, w := range workers {
		if strings.TrimSpace(w) == "" {
			return fmt.Errorf("cluster: empty worker address")
		}
		if seen[w] {
			return fmt.Errorf("cluster: duplicate worker address %q", w)
		}
		seen[w] = true
	}
	return nil
}

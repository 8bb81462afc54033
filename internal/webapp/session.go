package webapp

import (
	"sync/atomic"

	"repro/internal/dom"
	"repro/internal/memo"
	"repro/internal/webevent"
)

// pageKey identifies one deterministically built page tree.
type pageKey struct {
	app  string
	page string
	seed int64
}

// pageCache memoizes built page trees. BuildPage is deterministic in
// (application, page, seed), and a session mutates only node visibility and
// the viewport, so every consumer — the trace generator, the predictor's DOM
// replica, the accuracy evaluation — can start from a cloned master instead
// of rebuilding the page. The cache is process-wide and immutable: masters
// are never handed out directly, only clones. It is unbounded: it holds one
// master per distinct (application, page, seed) a process loads.
var (
	pageCache       memo.Cache[pageKey, *dom.Tree] // immutable masters
	pageCacheOff    atomic.Bool
	pageCacheBuilds atomic.Int64
	pageCacheHits   atomic.Int64
)

// SetPageCache enables or disables the shared page-tree cache and reports
// the previous setting. It exists for cold-path benchmarking (cmd/pes-bench)
// and must not be toggled while sessions are being built concurrently.
func SetPageCache(enabled bool) (was bool) {
	return !pageCacheOff.Swap(!enabled)
}

// PageCacheStats returns how many page trees were built and how many session
// page loads were served by cloning a cached master.
func PageCacheStats() (builds, hits int64) {
	return pageCacheBuilds.Load(), pageCacheHits.Load()
}

// builtPage returns a mutable tree for the page, cloned from the cache when
// enabled.
func builtPage(spec *Spec, page string, seed int64) *dom.Tree {
	if pageCacheOff.Load() {
		return spec.BuildPage(page, seed)
	}
	// The cache keeps an immutable snapshot; the builder gets the freshly
	// built tree itself to mutate.
	var fresh *dom.Tree
	master, hit, _ := pageCache.Get(pageKey{app: spec.Name, page: page, seed: seed}, func() (*dom.Tree, error) {
		fresh = spec.BuildPage(page, seed)
		return fresh.Clone(), nil
	})
	if !hit {
		pageCacheBuilds.Add(1)
		return fresh
	}
	pageCacheHits.Add(1)
	return master.Clone()
}

// Session tracks the DOM state of one user's interaction with an
// application: the current page's DOM tree, the scroll position, expanded
// menus, and any pending navigation. Both the trace generator and the runtime
// predictor replay events through a Session so that they observe exactly the
// same DOM state for the same event history.
type Session struct {
	Spec *Spec
	// DOMSeed parameterizes the deterministic page builder; traces record it
	// so that replay reconstructs identical pages.
	DOMSeed int64

	tree *dom.Tree
	// pendingPage is the destination of a navigation tap that has not yet
	// been followed by its Load event.
	pendingPage string
	pageVisits  int
}

// NewSession starts a session on the application's home page.
func NewSession(spec *Spec, domSeed int64) *Session {
	s := &Session{Spec: spec, DOMSeed: domSeed}
	s.loadPage("home")
	return s
}

func (s *Session) loadPage(page string) {
	s.tree = builtPage(s.Spec, page, s.DOMSeed)
	s.pageVisits++
}

// Tree returns the current page's DOM tree.
func (s *Session) Tree() *dom.Tree { return s.tree }

// PendingNavigation returns the page a navigation tap has committed to, or
// "" when no navigation is outstanding.
func (s *Session) PendingNavigation() string { return s.pendingPage }

// PageVisits returns how many pages (including the initial home page) have
// been loaded in this session.
func (s *Session) PageVisits() int { return s.pageVisits }

// CurrentPage returns the name of the page the session is on.
func (s *Session) CurrentPage() string { return s.tree.Page }

// Apply updates the DOM state in response to an event of the given type
// delivered to the given node, and returns the resulting mutation. Load
// events swap in the destination page (the pending navigation target, or the
// home page when there is none, e.g. for the session's initial load).
func (s *Session) Apply(typ webevent.Type, target dom.NodeID) dom.Mutation {
	if typ == webevent.Load {
		page := s.pendingPage
		if page == "" {
			page = "home"
		}
		// The very first load of the session lands on the already-built home
		// page; rebuilding it is equivalent and keeps replay deterministic.
		if !(s.pageVisits == 1 && page == "home" && s.tree.ViewportTop == 0) {
			s.loadPage(page)
		}
		s.pendingPage = ""
		return dom.Mutation{Kind: dom.Navigated, Page: page}
	}
	mut := s.tree.ApplyEvent(typ, target)
	if mut.Kind == dom.Navigated {
		s.pendingPage = mut.Page
	}
	return mut
}

// ApplyEvent is a convenience wrapper applying a runtime event.
func (s *Session) ApplyEvent(e *webevent.Event) dom.Mutation {
	return s.Apply(e.Type, dom.NodeID(e.Target))
}

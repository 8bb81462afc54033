package webapp

import (
	"sync/atomic"
	"testing"

	"repro/internal/dom"
	"repro/internal/webevent"
)

func TestSessionInitialState(t *testing.T) {
	s, _ := ByName("cnn")
	sess := NewSession(s, 99)
	if sess.CurrentPage() != "home" {
		t.Errorf("initial page = %q", sess.CurrentPage())
	}
	if sess.Tree() == nil {
		t.Fatal("session must expose a DOM tree")
	}
	if sess.PendingNavigation() != "" {
		t.Error("no navigation should be pending initially")
	}
	if sess.PageVisits() != 1 {
		t.Errorf("PageVisits = %d, want 1", sess.PageVisits())
	}
}

func TestSessionNavigationFlow(t *testing.T) {
	s, _ := ByName("cnn")
	sess := NewSession(s, 99)
	// Find a visible navigating node.
	var link dom.NodeID
	var dest string
	for _, id := range sess.Tree().VisibleTappable() {
		if n := sess.Tree().Node(id); n.NavigatesTo != "" && n.TogglesMenu == dom.None {
			link, dest = id, n.NavigatesTo
			break
		}
	}
	if link == dom.None {
		t.Fatal("home page has no visible navigation link")
	}
	mut := sess.Apply(webevent.Click, link)
	if mut.Kind != dom.Navigated || mut.Page != dest {
		t.Fatalf("mutation = %+v", mut)
	}
	if sess.PendingNavigation() != dest {
		t.Errorf("pending navigation = %q, want %q", sess.PendingNavigation(), dest)
	}
	// The Load event consumes the pending navigation and swaps the page.
	sess.Apply(webevent.Load, dom.None)
	if sess.CurrentPage() != dest {
		t.Errorf("after load, page = %q, want %q", sess.CurrentPage(), dest)
	}
	if sess.PendingNavigation() != "" {
		t.Error("pending navigation should be cleared after the load")
	}
	if sess.PageVisits() != 2 {
		t.Errorf("PageVisits = %d, want 2", sess.PageVisits())
	}
}

func TestSessionInitialLoadIsIdempotent(t *testing.T) {
	s, _ := ByName("bbc")
	sess := NewSession(s, 7)
	before := sess.Tree().Len()
	sess.Apply(webevent.Load, dom.None) // the session's first load event
	if sess.CurrentPage() != "home" || sess.Tree().Len() != before {
		t.Error("the initial load should land on the already-built home page")
	}
}

func TestSessionScrollAndMenu(t *testing.T) {
	s, _ := ByName("amazon")
	sess := NewSession(s, 5)
	top := sess.Tree().ViewportTop
	mut := sess.Apply(s.Behavior.MoveManifestation, dom.None)
	if mut.Kind != dom.Scrolled || sess.Tree().ViewportTop <= top {
		t.Errorf("scroll did not move the viewport: %+v", mut)
	}
	// Find a menu toggle and expand it.
	var toggle dom.NodeID
	sess.Tree().Walk(func(n *dom.Node) {
		if n.TogglesMenu != dom.None && toggle == dom.None {
			toggle = n.ID
		}
	})
	if toggle == dom.None {
		t.Fatal("amazon pages should have menu toggles")
	}
	mut = sess.Apply(s.Behavior.TapManifestation, toggle)
	if mut.Kind != dom.MenuToggled {
		t.Fatalf("toggle mutation = %+v", mut)
	}
	if sess.Tree().Node(mut.Menu).Hidden {
		t.Error("menu should be visible after the toggle")
	}
}

func TestSessionDeterministicReplay(t *testing.T) {
	s, _ := ByName("ebay")
	a := NewSession(s, 123)
	b := NewSession(s, 123)
	// Apply the same event sequence to both sessions; DOM state must match.
	seq := []webevent.Type{s.Behavior.MoveManifestation, s.Behavior.MoveManifestation, webevent.Load}
	for _, typ := range seq {
		a.Apply(typ, dom.None)
		b.Apply(typ, dom.None)
	}
	if a.CurrentPage() != b.CurrentPage() || a.Tree().ViewportTop != b.Tree().ViewportTop {
		t.Error("identical event sequences must produce identical session state")
	}
	if a.Tree().ClickableFraction() != b.Tree().ClickableFraction() {
		t.Error("identical sessions must expose identical features")
	}
}

// pageCacheTestRuns gives every run of TestPageCacheClonesAndToggle a DOM
// seed that no earlier run in the process loaded, so its first session
// builds the page however often the test repeats (go test -count=N).
var pageCacheTestRuns atomic.Int64

func TestPageCacheClonesAndToggle(t *testing.T) {
	spec := SeenApps()[0]
	builds0, _ := PageCacheStats()

	// Two sessions on the same (app, seed): the second must share the
	// cached master, not build.
	seed := 987654 + pageCacheTestRuns.Add(1)
	a := NewSession(spec, seed)
	buildsAfterFirst, hitsAfterFirst := PageCacheStats()
	b := NewSession(spec, seed)
	buildsAfterSecond, hitsAfterSecond := PageCacheStats()
	if buildsAfterSecond != buildsAfterFirst {
		t.Errorf("second session rebuilt the page: builds %d -> %d", buildsAfterFirst, buildsAfterSecond)
	}
	if hitsAfterSecond == hitsAfterFirst {
		t.Error("second session should have hit the page cache")
	}
	if buildsAfterFirst == builds0 {
		t.Error("first session should have built the page")
	}

	// Each view is independent: scrolling one session must not move the
	// other.
	a.Apply(spec.Behavior.MoveManifestation, 0)
	if a.Tree().ViewportTop == b.Tree().ViewportTop {
		t.Error("sessions share a mutable tree")
	}

	// With the cache disabled, sessions build fresh pages again.
	was := SetPageCache(false)
	defer SetPageCache(was)
	if !was {
		t.Error("page cache should have been enabled by default")
	}
	c := NewSession(spec, seed)
	if buildsNow, _ := PageCacheStats(); buildsNow != buildsAfterSecond {
		t.Error("cache-off builds must not be counted as cache builds")
	}
	if c.Tree().Len() != b.Tree().Len() {
		t.Error("cache-off session built a different page")
	}
}

// TestCachedPageLoadSteadyStateAlloc gates the page load of a cached page:
// it shares the master, so the only allocation is the view's tree header.
func TestCachedPageLoadSteadyStateAlloc(t *testing.T) {
	spec := SeenApps()[0]
	builtPage(spec, "home", 424242) // build and cache the master
	allocs := testing.AllocsPerRun(100, func() {
		if builtPage(spec, "home", 424242) == nil {
			t.Fatal("no tree")
		}
	})
	if allocs > 1 {
		t.Errorf("loading a cached page allocates %v times, want at most 1 (the tree header)", allocs)
	}
}

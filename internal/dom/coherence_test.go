package dom_test

import (
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/dom"
	"repro/internal/trace"
	"repro/internal/webapp"
	"repro/internal/webevent"
)

// TestDerivedCoherentOnEvaluationTraces replays every registry app's
// seed-1 evaluation trace through a webapp.Session and, after every event,
// checks the tree's derived answers against the walk-per-feature
// reference: a mutation that failed to drop the derived state would leave
// a stale answer here. The generated traces never tap a menu toggle (the
// toggles sit at the top of the page and users scroll away first), so
// after every event the test also opens and closes the page's first menu,
// checking both states; the double toggle leaves the replayed DOM state as
// it was.
func TestDerivedCoherentOnEvaluationTraces(t *testing.T) {
	var scrolls, toggles, loads int
	for _, spec := range webapp.Registry() {
		tr := trace.Generate(spec, 1, trace.Options{})
		sess, err := tr.Session()
		if err != nil {
			t.Fatal(err)
		}
		evs, err := tr.Runtime()
		if err != nil {
			t.Fatal(err)
		}
		if msg := dom.CheckReference(sess.Tree()); msg != "" {
			t.Fatalf("%s before the first event: %s", spec.Name, msg)
		}
		for i, e := range evs {
			switch sess.ApplyEvent(e).Kind {
			case dom.Scrolled:
				scrolls++
			case dom.Navigated:
				loads++
			}
			if msg := dom.CheckReference(sess.Tree()); msg != "" {
				t.Fatalf("%s after event %d (%v): %s", spec.Name, i, e.Type, msg)
			}
			toggle := firstToggle(sess.Tree())
			if toggle == dom.None {
				continue
			}
			for _, state := range []string{"opened", "closed"} {
				if sess.Apply(spec.Behavior.TapManifestation, toggle).Kind != dom.MenuToggled {
					t.Fatalf("%s after event %d: tapping toggle %d did not toggle its menu", spec.Name, i, toggle)
				}
				toggles++
				if msg := dom.CheckReference(sess.Tree()); msg != "" {
					t.Fatalf("%s after event %d, menu %s: %s", spec.Name, i, state, msg)
				}
			}
		}
	}
	if scrolls == 0 || toggles == 0 || loads == 0 {
		t.Errorf("replay exercised %d scrolls, %d menu toggles, %d navigations; want each > 0", scrolls, toggles, loads)
	}
}

// firstToggle returns the tree's first menu toggle in ID order, or None.
func firstToggle(tree *dom.Tree) dom.NodeID {
	toggle := dom.None
	tree.Walk(func(n *dom.Node) {
		if toggle == dom.None && n.TogglesMenu != dom.None {
			toggle = n.ID
		}
	})
	return toggle
}

// menuApp returns a registry app whose pages carry collapsible menus, and
// the toggle button of its home page's first menu.
func menuApp(t *testing.T) (*webapp.Spec, *dom.Tree, dom.NodeID) {
	t.Helper()
	for _, spec := range webapp.Registry() {
		if spec.MenuCount == 0 {
			continue
		}
		tree := spec.BuildPage("home", 1)
		if toggle := firstToggle(tree); toggle != dom.None {
			return spec, tree, toggle
		}
	}
	t.Fatal("no registry app has a menu toggle on its home page")
	return nil, nil, dom.None
}

// TestCloneMutationLeavesMasterDerived checks that mutating a deep copy of
// a derived master neither changes the master's answers nor leaves the
// copy with the master's stale ones.
func TestCloneMutationLeavesMasterDerived(t *testing.T) {
	_, master, toggle := menuApp(t)
	want := dom.ComputeReference(master)
	if msg := dom.CheckReference(master); msg != "" {
		t.Fatal(msg)
	}
	clone := dom.DeepCopy(master)
	clone.ApplyEvent(webevent.Click, toggle)
	clone.Scroll(clone.ViewportHeight)
	if msg := dom.CheckReference(clone); msg != "" {
		t.Errorf("clone after mutation: %s", msg)
	}
	if msg := dom.CheckReference(master); msg != "" {
		t.Errorf("master after clone mutation: %s", msg)
	}
	if got := master.ClickableFraction(); got != want.Clickable {
		t.Errorf("master ClickableFraction moved to %v from %v", got, want.Clickable)
	}
	if clone.ClickableFraction() == master.ClickableFraction() {
		t.Error("clone's derived answers did not change after its menu opened and it scrolled")
	}
}

// TestSharedViewMutationLeavesMasterDerived is the copy-on-write variant:
// a menu toggle and a scroll on one shared view of a derived master leave
// the master's nodes (effective-hidden flags included) and a sibling
// view's answers as they were, and the toggled view answers what a deep
// copy put through the same mutations computes by reference. A view that
// only scrolls keeps reading the master's nodes.
func TestSharedViewMutationLeavesMasterDerived(t *testing.T) {
	_, master, toggle := menuApp(t)
	master.Freeze()
	nodes := nodesOf(master)
	want := dom.ComputeReference(master)
	view, sibling := master.Share(), master.Share()
	copied := dom.DeepCopy(master)

	view.ApplyEvent(webevent.Click, toggle)
	view.Scroll(view.ViewportHeight)
	copied.ApplyEvent(webevent.Click, toggle)
	copied.Scroll(copied.ViewportHeight)
	if msg := dom.CheckReference(view); msg != "" {
		t.Errorf("toggled view: %s", msg)
	}
	if got, ref := dom.ComputeReference(view), dom.ComputeReference(copied); !reflect.DeepEqual(got, ref) {
		t.Errorf("toggled view's reference %+v, deep copy's %+v", got, ref)
	}
	if !reflect.DeepEqual(nodesOf(master), nodes) {
		t.Error("mutating a shared view changed its master's nodes")
	}
	for name, tree := range map[string]*dom.Tree{"master": master, "sibling view": sibling} {
		if msg := dom.CheckReference(tree); msg != "" {
			t.Errorf("%s after a view's mutation: %s", name, msg)
		}
		if got := tree.ClickableFraction(); got != want.Clickable {
			t.Errorf("%s ClickableFraction moved to %v from %v", name, got, want.Clickable)
		}
		if got := tree.LNES(); !slices.Equal(got, want.LNES) {
			t.Errorf("%s LNES moved to %v from %v", name, got, want.LNES)
		}
	}

	sibling.Scroll(sibling.ViewportHeight)
	if msg := dom.CheckReference(sibling); msg != "" {
		t.Errorf("scrolled sibling view: %s", msg)
	}
	if sibling.Node(toggle) != master.Node(toggle) {
		t.Error("a view that only scrolled copied its master's nodes")
	}
	if view.Node(toggle) == master.Node(toggle) {
		t.Error("a view that toggled a menu still writes its master's nodes")
	}
	if !reflect.DeepEqual(nodesOf(master), nodes) {
		t.Error("scrolling a shared view changed its master's nodes")
	}
}

// nodesOf returns a copy of the tree's nodes in ID order.
func nodesOf(tree *dom.Tree) []dom.Node {
	var out []dom.Node
	tree.Walk(func(n *dom.Node) { out = append(out, *n) })
	return out
}

// TestClonesDeriveConcurrently runs two sessions of one app on two
// goroutines. Both start from shared views of the process-wide cached
// home-page master and derive and mutate them at once: scrolls read the
// master's nodes, and each view's first menu toggle copies them, so under
// -race this must report nothing.
func TestClonesDeriveConcurrently(t *testing.T) {
	spec, _, toggle := menuApp(t)
	webapp.NewSession(spec, 1) // the first session builds and caches the master
	var wg sync.WaitGroup
	errs := make([]string, 2)
	for g := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess := webapp.NewSession(spec, 1)
			for i := 0; i < 20; i++ {
				if i%2 == g {
					sess.Apply(webevent.Click, toggle)
				} else {
					sess.Apply(spec.Behavior.MoveManifestation, dom.None)
				}
				if msg := dom.CheckReference(sess.Tree()); msg != "" {
					errs[g] = msg
					return
				}
			}
		}()
	}
	wg.Wait()
	for g, msg := range errs {
		if msg != "" {
			t.Errorf("session %d: %s", g, msg)
		}
	}
}

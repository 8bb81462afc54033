package dom

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/webevent"
)

// buildTestPage constructs a small page with:
//   - a scrollable document with scroll listeners,
//   - a visible link that navigates,
//   - a button that toggles an initially hidden menu with two menu items,
//   - a below-the-fold link that is not initially visible.
func buildTestPage() (*Tree, map[string]NodeID) {
	t := NewTree("home", 3000, 1000)
	ids := make(map[string]NodeID)
	root := t.Root()
	t.Node(root).Listeners = []webevent.Type{webevent.Scroll}

	ids["link"] = t.Add(&Node{
		Kind: Link, Parent: root, Y: 100, Height: 50, Area: 0.05,
		Listeners:   []webevent.Type{webevent.Click},
		NavigatesTo: "article",
	})
	menu := t.Add(&Node{Kind: Menu, Parent: root, Y: 300, Height: 200, Area: 0.2, Hidden: true})
	ids["menu"] = menu
	ids["toggle"] = t.Add(&Node{
		Kind: Button, Parent: root, Y: 250, Height: 40, Area: 0.04,
		Listeners:   []webevent.Type{webevent.Click},
		TogglesMenu: menu,
	})
	ids["item1"] = t.Add(&Node{
		Kind: MenuItem, Parent: menu, Y: 310, Height: 40, Area: 0.04,
		Listeners: []webevent.Type{webevent.Click}, NavigatesTo: "section1",
	})
	ids["item2"] = t.Add(&Node{
		Kind: MenuItem, Parent: menu, Y: 360, Height: 40, Area: 0.04,
		Listeners: []webevent.Type{webevent.Click}, NavigatesTo: "section2",
	})
	ids["deep-link"] = t.Add(&Node{
		Kind: Link, Parent: root, Y: 2500, Height: 50, Area: 0.05,
		Listeners:   []webevent.Type{webevent.Click},
		NavigatesTo: "deep",
	})
	ids["form"] = t.Add(&Node{
		Kind: Form, Parent: root, Y: 700, Height: 100, Area: 0.1,
		Listeners: []webevent.Type{webevent.Submit},
	})
	return t, ids
}

func TestTreeBasics(t *testing.T) {
	tree, ids := buildTestPage()
	if tree.Len() != 8 {
		t.Errorf("Len = %d, want 8", tree.Len())
	}
	if tree.Root() == None {
		t.Fatal("no root")
	}
	if tree.Node(ids["link"]).Kind != Link {
		t.Error("node lookup wrong")
	}
	count := 0
	tree.Walk(func(*Node) { count++ })
	if count != 8 {
		t.Errorf("Walk visited %d nodes", count)
	}
}

func TestVisibility(t *testing.T) {
	tree, ids := buildTestPage()
	if !tree.Visible(ids["link"]) {
		t.Error("above-the-fold link should be visible")
	}
	if tree.Visible(ids["deep-link"]) {
		t.Error("below-the-fold link should not be visible")
	}
	if tree.Visible(ids["item1"]) {
		t.Error("item inside a hidden menu should not be visible")
	}
	// Unhide the menu: items become visible.
	tree.SetHidden(ids["menu"], false)
	if !tree.Visible(ids["item1"]) {
		t.Error("menu item should be visible after the menu is shown")
	}
	// Scroll to the bottom: deep link becomes visible, top link does not.
	tree.Scroll(2200)
	if !tree.Visible(ids["deep-link"]) {
		t.Error("deep link should be visible after scrolling down")
	}
	if tree.Visible(ids["link"]) {
		t.Error("top link should have scrolled out of the viewport")
	}
}

func TestScrollClamping(t *testing.T) {
	tree, _ := buildTestPage()
	moved := tree.Scroll(-500)
	if moved != 0 || tree.ViewportTop != 0 {
		t.Errorf("scrolling above the page should clamp: moved=%v top=%v", moved, tree.ViewportTop)
	}
	moved = tree.Scroll(1e9)
	if tree.ViewportTop != 2000 || moved != 2000 {
		t.Errorf("scrolling past the bottom should clamp to 2000, got top=%v moved=%v", tree.ViewportTop, moved)
	}
	if tree.ScrollFraction() != 1 {
		t.Errorf("ScrollFraction at bottom = %v", tree.ScrollFraction())
	}
	if !tree.Scrollable() {
		t.Error("page should be scrollable")
	}
	flat := NewTree("flat", 500, 1000)
	if flat.Scrollable() || flat.ScrollFraction() != 0 {
		t.Error("single-viewport page should not be scrollable")
	}
}

func TestFractions(t *testing.T) {
	tree, ids := buildTestPage()
	cf := tree.ClickableFraction()
	// link(0.05) + toggle(0.04) + form is submit-only (not a tap listener? submit is tap) -> includes form 0.1
	if cf <= 0 || cf > 1 {
		t.Fatalf("ClickableFraction out of range: %v", cf)
	}
	lf := tree.LinkFraction()
	if lf <= 0 || lf >= cf {
		t.Errorf("LinkFraction = %v, ClickableFraction = %v", lf, cf)
	}
	// Showing the menu increases the clickable area.
	tree.SetHidden(ids["menu"], false)
	if tree.ClickableFraction() <= cf {
		t.Error("showing the menu should increase the clickable fraction")
	}
	if tree.ViewportCenterY() <= 0 || tree.ViewportCenterY() >= 1 {
		t.Errorf("ViewportCenterY = %v", tree.ViewportCenterY())
	}
}

func TestPartialVisibilityArea(t *testing.T) {
	tree := NewTree("p", 2000, 1000)
	root := tree.Root()
	// A node straddling the viewport bottom: only half its height is visible.
	id := tree.Add(&Node{Kind: Link, Parent: root, Y: 900, Height: 200, Area: 0.2,
		Listeners: []webevent.Type{webevent.Click}})
	got := tree.LinkFraction()
	if got <= 0.09 || got >= 0.11 {
		t.Errorf("half-visible node should contribute ~0.1, got %v", got)
	}
	_ = id
}

func TestLNES(t *testing.T) {
	tree, ids := buildTestPage()
	lnes := tree.LNES()
	has := func(types []webevent.Type, typ webevent.Type) bool {
		for _, x := range types {
			if x == typ {
				return true
			}
		}
		return false
	}
	if !has(lnes, webevent.Click) || !has(lnes, webevent.Scroll) || !has(lnes, webevent.Load) || !has(lnes, webevent.Submit) {
		t.Errorf("LNES = %v, want click+scroll+load+submit", lnes)
	}
	if has(lnes, webevent.TouchStart) {
		t.Error("touchstart should not be possible: no listener registered")
	}
	// Hide everything tappable: only scroll remains.
	for _, key := range []string{"link", "toggle", "form", "deep-link"} {
		tree.SetHidden(ids[key], true)
	}
	lnes = tree.LNES()
	if has(lnes, webevent.Click) || has(lnes, webevent.Load) {
		t.Errorf("LNES after hiding = %v, should not contain click/load", lnes)
	}
	if !has(lnes, webevent.Scroll) {
		t.Error("scroll should remain possible")
	}
}

func TestApplyEventMenuToggle(t *testing.T) {
	tree, ids := buildTestPage()
	mut := tree.ApplyEvent(webevent.Click, ids["toggle"])
	if mut.Kind != MenuToggled || mut.Menu != ids["menu"] {
		t.Fatalf("mutation = %+v", mut)
	}
	if tree.Node(ids["menu"]).Hidden {
		t.Error("menu should now be visible")
	}
	// Toggling again hides it.
	tree.ApplyEvent(webevent.Click, ids["toggle"])
	if !tree.Node(ids["menu"]).Hidden {
		t.Error("menu should be hidden again")
	}
}

func TestApplyEventNavigationAndScroll(t *testing.T) {
	tree, ids := buildTestPage()
	mut := tree.ApplyEvent(webevent.Click, ids["link"])
	if mut.Kind != Navigated || mut.Page != "article" {
		t.Errorf("mutation = %+v", mut)
	}
	before := tree.ViewportTop
	mut = tree.ApplyEvent(webevent.Scroll, None)
	if mut.Kind != Scrolled || tree.ViewportTop <= before {
		t.Errorf("scroll mutation = %+v, top %v -> %v", mut, before, tree.ViewportTop)
	}
	// A click on a plain node mutates nothing.
	plain := tree.Add(&Node{Kind: Text, Parent: tree.Root(), Y: 10, Height: 10})
	if mut := tree.ApplyEvent(webevent.Click, plain); mut.Kind != NoMutation {
		t.Errorf("plain click mutation = %+v", mut)
	}
	if mut := tree.ApplyEvent(webevent.Load, None); mut.Kind != NoMutation {
		t.Errorf("load mutation = %+v", mut)
	}
}

func TestInvalidNodePanics(t *testing.T) {
	tree, _ := buildTestPage()
	defer func() {
		if recover() == nil {
			t.Error("expected panic for invalid node id")
		}
	}()
	tree.Node(NodeID(9999))
}

func TestKindAndRoleStrings(t *testing.T) {
	if Document.String() != "document" || MenuItem.String() != "menuitem" {
		t.Error("Kind names wrong")
	}
	if Kind(99).String() == "" {
		t.Error("unknown kinds should render")
	}
}

// Property: ClickableFraction and LinkFraction are always within [0, 1]
// regardless of scroll position.
func TestFractionBoundsProperty(t *testing.T) {
	f := func(scrollRaw uint16) bool {
		tree, _ := buildTestPage()
		tree.Scroll(float64(scrollRaw))
		cf := tree.ClickableFraction()
		lf := tree.LinkFraction()
		return cf >= 0 && cf <= 1 && lf >= 0 && lf <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: scrolling never moves the viewport outside the page.
func TestScrollBoundsProperty(t *testing.T) {
	f := func(deltas []int16) bool {
		tree, _ := buildTestPage()
		for _, d := range deltas {
			tree.Scroll(float64(d))
			if tree.ViewportTop < 0 || tree.ViewportTop > tree.PageHeight-tree.ViewportHeight {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Reference is what the predictor reads from one DOM state, computed by
// Reference the way the tree computed it before the derive pass: one
// whole-tree walk per feature, each re-walking every node's ancestors for
// its effective visibility. It is exported for the replay test in package
// dom_test.
type Reference struct {
	Clickable, Link float64
	LNES            []webevent.Type
	TapTarget       NodeID
	TapKind         Kind
}

// ComputeReference returns the walk-per-feature answers for the tree.
func ComputeReference(t *Tree) Reference {
	hidden := func(n *Node) bool {
		for {
			if n.Hidden {
				return true
			}
			if n.Parent == None {
				return false
			}
			n = t.Node(n.Parent)
		}
	}
	var r Reference
	for i := range t.nodes[1:] {
		n := &t.nodes[i+1]
		if hidden(n) || !n.Tappable() {
			continue
		}
		r.Clickable += t.visibleAreaFraction(n)
	}
	if r.Clickable > 1 {
		r.Clickable = 1
	}
	for i := range t.nodes[1:] {
		n := &t.nodes[i+1]
		if n.Kind != Link || hidden(n) {
			continue
		}
		r.Link += t.visibleAreaFraction(n)
	}
	if r.Link > 1 {
		r.Link = 1
	}
	var set [webevent.NumTypes]bool
	moveOK := t.Scrollable() && !t.AtBottom()
	for i := range t.nodes[1:] {
		n := &t.nodes[i+1]
		if hidden(n) || !t.inViewport(n) {
			continue
		}
		for _, l := range n.Listeners {
			if l.IsMove() && !moveOK {
				continue
			}
			set[l] = true
		}
		if n.NavigatesTo != "" && n.Tappable() {
			set[webevent.Load] = true
		}
	}
	for typ := webevent.Type(0); int(typ) < webevent.NumTypes; typ++ {
		if set[typ] {
			r.LNES = append(r.LNES, typ)
		}
	}
	r.TapKind = Document
	bestArea := -1.0
	for i := range t.nodes[1:] {
		n := &t.nodes[i+1]
		if n.Tappable() && !hidden(n) && t.inViewport(n) && n.Area > bestArea {
			r.TapTarget, r.TapKind, bestArea = n.ID, n.Kind, n.Area
		}
	}
	return r
}

// DeepCopy returns a tree that owns a copy of t's nodes and of their
// Children: the independent reference a shared view is checked against, so
// it copies without Share or own. It is exported for the tests in package
// dom_test.
func DeepCopy(t *Tree) *Tree {
	c := *t
	c.shared = false
	c.nodes = slices.Clone(t.nodes)
	for i := range c.nodes {
		c.nodes[i].Children = slices.Clone(c.nodes[i].Children)
	}
	return &c
}

// CheckReference reports how the tree's derived answers differ from the
// walk-per-feature reference: the fractions bit for bit, the LNES, and the
// tap target with its kind. It returns "" when they agree.
func CheckReference(t *Tree) string {
	want := ComputeReference(t)
	target, kind := t.TypicalTapTarget()
	switch {
	case math.Float64bits(t.ClickableFraction()) != math.Float64bits(want.Clickable):
		return fmt.Sprintf("ClickableFraction = %v, reference %v", t.ClickableFraction(), want.Clickable)
	case math.Float64bits(t.LinkFraction()) != math.Float64bits(want.Link):
		return fmt.Sprintf("LinkFraction = %v, reference %v", t.LinkFraction(), want.Link)
	case !slices.Equal(t.LNES(), want.LNES):
		return fmt.Sprintf("LNES = %v, reference %v", t.LNES(), want.LNES)
	case target != want.TapTarget || kind != want.TapKind:
		return fmt.Sprintf("TypicalTapTarget = (%d, %v), reference (%d, %v)", target, kind, want.TapTarget, want.TapKind)
	}
	return ""
}

// Property: after any sequence of scrolls, menu toggles and visibility
// changes, every derived answer equals the walk-per-feature reference.
func TestDerivedMatchesReferenceProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		tree, ids := buildTestPage()
		keys := []string{"link", "menu", "toggle", "item1", "item2", "deep-link", "form"}
		for _, op := range ops {
			switch op % 4 {
			case 0:
				tree.Scroll(float64(int(op>>2)%3000) - 1500)
			case 1:
				tree.ApplyEvent(webevent.Click, ids["toggle"])
			case 2:
				key := keys[int(op>>2)%len(keys)]
				tree.SetHidden(ids[key], !tree.Node(ids[key]).Hidden)
			case 3:
				tree.ApplyEvent(webevent.Scroll, None)
			}
			if msg := CheckReference(tree); msg != "" {
				t.Log(msg)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestAddInvalidatesDerived checks that a node added after a read is seen
// by the next read.
func TestAddInvalidatesDerived(t *testing.T) {
	tree, _ := buildTestPage()
	before := tree.LinkFraction()
	tree.Add(&Node{Kind: Link, Parent: tree.Root(), Y: 0, Height: 10, Area: 0.3,
		Listeners: []webevent.Type{webevent.Click}})
	if tree.LinkFraction() <= before {
		t.Errorf("LinkFraction %v did not grow after adding a visible link (was %v)", tree.LinkFraction(), before)
	}
	if msg := CheckReference(tree); msg != "" {
		t.Error(msg)
	}
}

// TestSharedViewAddLeavesSiblingChildren: views of one master that add
// nodes under the same parent must not append into the spare capacity of
// the master's Children array, where each would overwrite the other's new
// child.
func TestSharedViewAddLeavesSiblingChildren(t *testing.T) {
	master, ids := buildTestPage()
	root := master.Root()
	want := slices.Clone(master.Node(root).Children)
	a, b := master.Share(), master.Share()
	na := a.Add(&Node{Kind: Text, Parent: root, Y: 0, Height: 10})
	b.Add(&Node{Kind: Text, Parent: ids["menu"], Y: 320, Height: 10})
	nb := b.Add(&Node{Kind: Text, Parent: root, Y: 20, Height: 10})
	if got := a.Node(root).Children; !slices.Equal(got, append(slices.Clone(want), na)) {
		t.Errorf("view a's root children = %v, want %v then %d", got, want, na)
	}
	if got := b.Node(root).Children; !slices.Equal(got, append(slices.Clone(want), nb)) {
		t.Errorf("view b's root children = %v, want %v then %d", got, want, nb)
	}
	if got := master.Node(root).Children; !slices.Equal(got, want) {
		t.Errorf("master's root children = %v, want %v", got, want)
	}
}

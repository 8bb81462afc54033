// Package dom provides the Document Object Model substrate that the PES
// predictor analyzes.
//
// The model is intentionally structural: nodes have a kind, a vertical
// position on the page, an on-screen area, and registered event listeners.
// The paper's Semantic Tree is not a separate structure here: the two pieces
// of semantic information it memoizes during parsing live directly on each
// Node — TogglesMenu (activating the node toggles the visibility of another
// subtree, i.e. a collapsible menu) and NavigatesTo (activating it navigates
// to another page). The predictor's Analyzer reads them. This is enough to
// compute the application-inherent prediction features of Table 1
// (clickable-region and visible-link percentages) and the
// Likely-Next-Event-Set (LNES) used by the DOM analyzer, including the
// post-event DOM state after a menu toggle, without evaluating callbacks.
package dom

import (
	"fmt"
	"slices"

	"repro/internal/webevent"
)

// NodeID identifies a node within a Tree. The zero NodeID means "no node".
type NodeID int

// None is the absent-node sentinel.
const None NodeID = 0

// Kind classifies a DOM node by its role on the page.
type Kind int

const (
	// Document is the root node of a page.
	Document Kind = iota
	// Container is a generic block element (div/section).
	Container
	// Text is static text content.
	Text
	// Link is an anchor that may navigate to another page.
	Link
	// Button is a clickable control.
	Button
	// Image is a picture; images may or may not carry listeners.
	Image
	// Input is a form field.
	Input
	// Form is a form container; submit events are delivered here.
	Form
	// Menu is a collapsible container toggled by some Button/Link.
	Menu
	// MenuItem is an entry inside a Menu.
	MenuItem
	// Video is an embedded media element.
	Video
)

// String names the node kind.
func (k Kind) String() string {
	names := [...]string{"document", "container", "text", "link", "button",
		"image", "input", "form", "menu", "menuitem", "video"}
	if int(k) < len(names) {
		return names[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Node is one element of the DOM tree. Pointers into a shared view (see
// Tree.Share) point at its master's nodes and are read-only.
type Node struct {
	ID       NodeID
	Kind     Kind
	Parent   NodeID
	Children []NodeID
	// Listeners are the event types registered on this node.
	Listeners []webevent.Type
	// Hidden corresponds to display:none — the node and its subtree do not
	// occupy screen space. Set it in the node literal passed to Add; once
	// the node is in a tree, change it only through Tree.SetHidden, which
	// keeps the tree's derived state coherent.
	Hidden bool
	// hiddenEff records whether the node or any ancestor is hidden, as of
	// the derive pass after the tree's last Add or SetHidden. Next to Hidden
	// it takes no extra space, and it travels with the nodes: a shared view
	// reads its master's flags, and a view that copies its nodes copies
	// them too.
	hiddenEff bool
	// Y and Height place the node vertically on the page, in abstract page
	// units (the page spans [0, Tree.PageHeight)).
	Y, Height float64
	// Area is the fraction of the viewport the node covers when it is fully
	// inside the viewport (0–1).
	Area float64
	// TogglesMenu records, in the Semantic Tree sense, that activating this
	// node flips the Hidden state of the referenced node.
	TogglesMenu NodeID
	// NavigatesTo records that activating this node navigates to the named
	// page ("" when it does not navigate).
	NavigatesTo string
}

// Tappable reports whether the node reacts to any tap-interaction event.
func (n *Node) Tappable() bool {
	for _, l := range n.Listeners {
		if l.IsTap() {
			return true
		}
	}
	return false
}

// Tree is a DOM tree plus the viewport geometry of the page. A tree either
// owns its nodes or is a shared view of a master's (Share): a view reads
// the master's nodes until its first Add or SetHidden copies them, so a
// page load that only scrolls never copies a node.
type Tree struct {
	// Page is the name of the page this tree renders.
	Page string
	// PageHeight is the total scrollable height in page units.
	PageHeight float64
	// ViewportHeight is the visible window height in page units.
	ViewportHeight float64
	// ViewportTop is the current scroll offset. Move it only through
	// Scroll, which keeps the tree's derived state coherent.
	ViewportTop float64

	nodes []Node // nodes[0] is unused so that NodeID 0 can mean "none"
	root  NodeID
	// shared is set on a view whose nodes are its master's: the tree must
	// copy them before writing any.
	shared bool
	// hiddenStale is set by Add and SetHidden, the two mutations that can
	// change a node's effective-hidden flag; only then does the derive pass
	// rewrite the flags, so deriving a view after a scroll writes no node.
	hiddenStale bool

	// d caches what the predictor derives from the current DOM state. It is
	// a plain value, so Share copies it along with the view of the nodes'
	// hiddenEff flags it was computed with.
	d derived
}

// derived is everything the predictor reads from one DOM state, filled by
// one top-down pass (Tree.derive) and dropped by every mutation: Add,
// SetHidden, Scroll and the menu toggle of ApplyEvent. The virtual state
// of sequence prediction never touches the tree, so one pass serves every
// predicted step and every plan until the DOM next changes.
type derived struct {
	valid bool
	// clickable and link are ClickableFraction and LinkFraction.
	clickable, link float64
	// lnes is the Likely-Next-Event-Set as a type-indexed set.
	lnes [webevent.NumTypes]bool
	// tapTarget and tapKind are TypicalTapTarget's answer.
	tapTarget NodeID
	tapKind   Kind
}

// NewTree creates a tree for the named page with the given geometry and a
// Document root spanning the whole page. Scroll listeners should be
// registered on the root by the page builder when the page is scrollable.
func NewTree(page string, pageHeight, viewportHeight float64) *Tree {
	if pageHeight < viewportHeight {
		pageHeight = viewportHeight
	}
	t := &Tree{
		Page:           page,
		PageHeight:     pageHeight,
		ViewportHeight: viewportHeight,
		nodes:          make([]Node, 1, 64),
	}
	t.root = t.Add(&Node{Kind: Document, Y: 0, Height: pageHeight})
	return t
}

// Add copies the node into the tree, assigning its ID (also to n) and
// linking it to its parent (if any). It returns the new node's ID; later
// changes go through Node(id). Pointers from Node are valid until the next
// Add, and on a shared view until its first SetHidden.
func (t *Tree) Add(n *Node) NodeID {
	t.own()
	id := NodeID(len(t.nodes))
	n.ID = id
	t.nodes = append(t.nodes, *n)
	t.d.valid, t.hiddenStale = false, true
	if n.Parent != None {
		p := t.Node(n.Parent)
		p.Children = append(p.Children, id)
	}
	return id
}

// Root returns the ID of the document root.
func (t *Tree) Root() NodeID { return t.root }

// Share returns a view of the tree that can be mutated (menu toggles,
// scrolling) without affecting the receiver, its master. The view reads
// the master's nodes, so sharing costs one tree header; its first Add or
// SetHidden copies them (one slice copy, since they are stored by value),
// and Scroll copies nothing. Share derives the master first, so no view
// writes the master's flags. The master must not be mutated while views
// of it are in use; sharing a derived master only reads it, so goroutines
// may share one master and use their views at once. This is what makes
// the shared page-tree cache (package webapp) pay off.
func (t *Tree) Share() *Tree {
	t.derive()
	v := *t
	v.shared = true
	return &v
}

// own gives a shared view its own copy of the nodes before a write. The
// copied Children slices still alias the master's arrays, so they are
// clipped: an Add on the view reallocates its parent's Children instead of
// appending into the master's spare capacity.
func (t *Tree) own() {
	if !t.shared {
		return
	}
	t.nodes = slices.Clone(t.nodes)
	for i := range t.nodes {
		t.nodes[i].Children = slices.Clip(t.nodes[i].Children)
	}
	t.shared = false
}

// Len returns the number of nodes in the tree.
func (t *Tree) Len() int { return len(t.nodes) - 1 }

// Node returns the node with the given ID. It panics for invalid IDs; the
// tree is an internal data structure and IDs always come from Add.
func (t *Tree) Node(id NodeID) *Node {
	if id <= 0 || int(id) >= len(t.nodes) {
		panic(fmt.Sprintf("dom: invalid node id %d", id))
	}
	return &t.nodes[id]
}

// Walk visits every node in ID order.
func (t *Tree) Walk(f func(*Node)) {
	for i := range t.nodes[1:] {
		f(&t.nodes[i+1])
	}
}

// SetHidden sets the node's own Hidden flag (display:none). It is the one
// way to change visibility once a node is in the tree; on a shared view it
// copies the nodes first.
func (t *Tree) SetHidden(id NodeID, hidden bool) {
	t.own()
	t.Node(id).Hidden = hidden
	t.d.valid, t.hiddenStale = false, true
}

// derive returns the derived state of the current DOM, filling it first if
// a mutation dropped it. One pass visits the nodes in ID order; Add gives a
// parent a lower ID than its children, so each node inherits its parent's
// effective-hidden flag instead of walking its ancestors. It rewrites those
// flags only when an Add or SetHidden made them stale; a pass after a
// scroll reads them, so deriving a shared view writes none of its master's
// nodes. The two area sums add the same nodes in the same order as a
// separate walk per feature would, so they are bit-identical to it.
func (t *Tree) derive() *derived {
	d := &t.d
	if d.valid {
		return d
	}
	*d = derived{valid: true, tapKind: Document}
	moveOK := t.Scrollable() && !t.AtBottom()
	bestArea := -1.0
	rehide := t.hiddenStale
	t.hiddenStale = false
	for i := range t.nodes[1:] {
		n := &t.nodes[i+1]
		if rehide {
			n.hiddenEff = n.Hidden || (n.Parent != None && t.nodes[n.Parent].hiddenEff)
		}
		if n.hiddenEff {
			continue
		}
		tappable := n.Tappable()
		if tappable {
			d.clickable += t.visibleAreaFraction(n)
		}
		if n.Kind == Link {
			d.link += t.visibleAreaFraction(n)
		}
		if !t.inViewport(n) {
			continue
		}
		for _, l := range n.Listeners {
			if l.IsMove() && !moveOK {
				continue
			}
			d.lnes[l] = true
		}
		if !tappable {
			continue
		}
		if n.NavigatesTo != "" {
			d.lnes[webevent.Load] = true
		}
		if n.Area > bestArea {
			d.tapTarget, d.tapKind, bestArea = n.ID, n.Kind, n.Area
		}
	}
	d.clickable = min(d.clickable, 1)
	d.link = min(d.link, 1)
	return d
}

// Freeze readies a built tree to be a long-lived master (a page cache
// entry) that views share. It fills the derived state now, which every
// view copies, so none pays the first pass or writes the master's nodes;
// and it trims the node slice to its length, since a master outlives the
// build that grew it. It writes the tree, so it must happen before
// goroutines share the tree, and the tree must not be mutated after.
func (t *Tree) Freeze() {
	t.derive()
	t.nodes = slices.Clone(t.nodes)
}

// inViewport reports whether the node's vertical extent intersects the
// current viewport.
func (t *Tree) inViewport(n *Node) bool {
	top := t.ViewportTop
	bottom := top + t.ViewportHeight
	return n.Y < bottom && n.Y+n.Height > top
}

// visible reports whether a node is currently visible, reading the
// effective-hidden flags of the last derive pass; callers derive first.
func (t *Tree) visible(n *Node) bool { return !n.hiddenEff && t.inViewport(n) }

// Visible reports whether a node is currently visible: not hidden (directly
// or via an ancestor) and intersecting the viewport.
func (t *Tree) Visible(id NodeID) bool {
	t.derive()
	return t.visible(t.Node(id))
}

// VisibleNodes returns the IDs of all currently visible nodes in ID order.
func (t *Tree) VisibleNodes() []NodeID {
	t.derive()
	var out []NodeID
	for i := range t.nodes[1:] {
		n := &t.nodes[i+1]
		if t.visible(n) {
			out = append(out, n.ID)
		}
	}
	return out
}

// visibleAreaFraction returns the fraction of the viewport covered by the
// visible portion of node n (its Area scaled by the visible share of its
// height).
func (t *Tree) visibleAreaFraction(n *Node) float64 {
	if n.Height <= 0 {
		return 0
	}
	top := t.ViewportTop
	bottom := top + t.ViewportHeight
	visTop := n.Y
	if visTop < top {
		visTop = top
	}
	visBottom := n.Y + n.Height
	if visBottom > bottom {
		visBottom = bottom
	}
	if visBottom <= visTop {
		return 0
	}
	return n.Area * (visBottom - visTop) / n.Height
}

// ClickableFraction returns the fraction of the viewport covered by visible
// nodes that react to a tap interaction — the paper's "clickable region
// percentage in the viewport" feature. The result is clamped to [0, 1].
func (t *Tree) ClickableFraction() float64 { return t.derive().clickable }

// LinkFraction returns the fraction of the viewport covered by visible link
// nodes — the paper's "visible link percentage in the viewport" feature.
// The result is clamped to [0, 1].
func (t *Tree) LinkFraction() float64 { return t.derive().link }

// TypicalTapTarget returns the hypothetical node a predicted tap would land
// on: the visible tappable node with the largest on-screen area (the first
// in ID order on a tie), with its kind. It returns (None, Document) when
// nothing visible is tappable.
func (t *Tree) TypicalTapTarget() (NodeID, Kind) {
	d := t.derive()
	return d.tapTarget, d.tapKind
}

// ScrollStepFraction is the fraction of the viewport height a single move
// event advances the viewport by (one flick of the thumb).
const ScrollStepFraction = 0.55

// Scrollable reports whether the page extends beyond a single viewport.
func (t *Tree) Scrollable() bool { return t.PageHeight > t.ViewportHeight+1e-9 }

// AtBottom reports whether the viewport has (essentially) reached the end of
// the page, i.e. a further downward scroll would not reveal new content.
func (t *Tree) AtBottom() bool { return t.ScrollFraction() >= 0.995 }

// Scroll moves the viewport by dy page units, clamped to the page bounds,
// and returns the actual displacement.
func (t *Tree) Scroll(dy float64) float64 {
	maxTop := t.PageHeight - t.ViewportHeight
	newTop := t.ViewportTop + dy
	if newTop < 0 {
		newTop = 0
	}
	if newTop > maxTop {
		newTop = maxTop
	}
	moved := newTop - t.ViewportTop
	t.ViewportTop = newTop
	t.d.valid = false
	return moved
}

// ScrollFraction returns how far down the page the viewport currently is,
// in [0, 1]; 0 when the page is not scrollable.
func (t *Tree) ScrollFraction() float64 {
	maxTop := t.PageHeight - t.ViewportHeight
	if maxTop <= 0 {
		return 0
	}
	return t.ViewportTop / maxTop
}

// ViewportCenterY returns the vertical centre of the viewport as a fraction
// of the page height; used for the "distance to previous click" feature.
func (t *Tree) ViewportCenterY() float64 {
	if t.PageHeight <= 0 {
		return 0
	}
	return (t.ViewportTop + t.ViewportHeight/2) / t.PageHeight
}

// VisibleTappable returns the visible nodes that react to tap events.
func (t *Tree) VisibleTappable() []NodeID {
	var out []NodeID
	t.VisitVisibleTappable(func(n *Node) bool {
		out = append(out, n.ID)
		return true
	})
	return out
}

// VisitVisibleTappable calls f for every visible tappable node in ID order
// (the same order VisibleTappable returns), stopping early when f returns
// false. It is the allocation-free counterpart of VisibleTappable, used on
// the predictor's per-event path.
func (t *Tree) VisitVisibleTappable(f func(*Node) bool) {
	t.derive()
	for i := range t.nodes[1:] {
		n := &t.nodes[i+1]
		if n.Tappable() && t.visible(n) {
			if !f(n) {
				return
			}
		}
	}
}

// LNES computes the Likely-Next-Event-Set: the set of DOM-level event types
// that could possibly be triggered by the next user input given the current
// visible DOM state. A Load is possible only when a visible node navigates;
// move events are possible only when the page is scrollable, further content
// remains below the viewport, and a move listener is registered on a visible
// node (typically the document root).
func (t *Tree) LNES() []webevent.Type {
	return t.AppendLNES(nil)
}

// AppendLNES appends the Likely-Next-Event-Set to dst (in ascending type
// order, the same as LNES) and returns the extended slice. Passing a buffer
// with spare capacity makes the computation allocation-free; it is the
// per-prediction fast path of the DOM analyzer.
func (t *Tree) AppendLNES(dst []webevent.Type) []webevent.Type {
	d := t.derive()
	for typ := webevent.Type(0); int(typ) < webevent.NumTypes; typ++ {
		if d.lnes[typ] {
			dst = append(dst, typ)
		}
	}
	return dst
}

// MutationKind describes what applying an event did to the DOM.
type MutationKind int

const (
	// NoMutation means the DOM structure did not change.
	NoMutation MutationKind = iota
	// MenuToggled means a collapsible subtree changed visibility.
	MenuToggled
	// Navigated means the event navigates to another page; the caller must
	// replace the tree with the destination page's tree.
	Navigated
	// Scrolled means the viewport moved.
	Scrolled
)

// Mutation is the result of applying an event to the tree.
type Mutation struct {
	Kind MutationKind
	// Menu is the toggled menu node for MenuToggled mutations.
	Menu NodeID
	// Page is the destination page for Navigated mutations.
	Page string
}

// ApplyEvent mutates the DOM in response to an event delivered to target:
// menu toggles flip the referenced subtree's visibility, navigation taps
// report the destination page, and move events scroll the viewport by one
// step (ScrollStepFraction of the viewport). Unknown targets (e.g. a load
// event) leave the DOM unchanged.
func (t *Tree) ApplyEvent(typ webevent.Type, target NodeID) Mutation {
	if typ.IsMove() {
		t.Scroll(t.ViewportHeight * ScrollStepFraction)
		return Mutation{Kind: Scrolled}
	}
	if target == None || int(target) >= len(t.nodes) || !typ.IsTap() {
		return Mutation{Kind: NoMutation}
	}
	n := t.Node(target)
	if n.TogglesMenu != None {
		menu := n.TogglesMenu
		t.SetHidden(menu, !t.Node(menu).Hidden)
		return Mutation{Kind: MenuToggled, Menu: menu}
	}
	if n.NavigatesTo != "" {
		return Mutation{Kind: Navigated, Page: n.NavigatesTo}
	}
	return Mutation{Kind: NoMutation}
}

package predictor

import (
	"repro/internal/dom"
	"repro/internal/webapp"
	"repro/internal/webevent"
)

// Hint is a high-confidence next-event suggestion derived purely from
// program analysis of the application (the Semantic Tree), independent of
// the statistical learner.
type Hint struct {
	Valid      bool
	Type       webevent.Type
	Target     dom.NodeID
	TargetKind dom.Kind
	Confidence float64
}

// Analysis is the result of the DOM analyzer for one prediction step.
type Analysis struct {
	// LNES is the Likely-Next-Event-Set: event types that the visible DOM
	// state permits as the next user-triggered event.
	LNES []webevent.Type
	// Hint is an optional program-analysis prediction that takes precedence
	// over the statistical learner when valid.
	Hint Hint
}

// Analyzer performs the program-analysis half of the predictor. It inspects
// the Semantic Tree annotations on the session's DOM nodes (dom.Node's
// TogglesMenu and NavigatesTo) to narrow the prediction space and to resolve
// the cases where the application logic makes the next event near-certain:
// a tap that navigates is followed by the destination page's load, and an
// expanded menu is almost always followed by a tap on one of its items.
type Analyzer struct {
	sess *webapp.Session
	// lnesBuf is the reusable LNES buffer of the per-event fast path; the
	// Analysis returned by Analyze aliases it and is valid until the next
	// Analyze call (its consumer, the prediction step, uses it immediately).
	lnesBuf []webevent.Type
}

// NewAnalyzer creates an analyzer bound to a DOM session.
func NewAnalyzer(sess *webapp.Session) *Analyzer { return &Analyzer{sess: sess} }

// Analyze computes the LNES and hint for the next event. menuJustOpened is
// the menu node expanded by the most recent event (None when the previous
// event did not expand a menu).
func (a *Analyzer) Analyze(menuJustOpened dom.NodeID) Analysis {
	tree := a.sess.Tree()
	a.lnesBuf = tree.AppendLNES(a.lnesBuf[:0])
	out := Analysis{LNES: a.lnesBuf}

	// A pending navigation means the next event is the destination page's
	// load: the application logic has already committed to it.
	if a.sess.PendingNavigation() != "" {
		out.Hint = Hint{
			Valid:      true,
			Type:       webevent.Load,
			Target:     dom.None,
			TargetKind: dom.Document,
			Confidence: 0.96,
		}
		out.LNES = lnesLoadOnly
		return out
	}

	// A menu the user just expanded strongly suggests a tap on one of its
	// items next (that is why the menu was opened).
	if menuJustOpened != dom.None {
		if item, ok := a.firstVisibleMenuItem(menuJustOpened); ok {
			n := tree.Node(item)
			typ := a.tapManifestation(n)
			out.Hint = Hint{
				Valid:      true,
				Type:       typ,
				Target:     item,
				TargetKind: n.Kind,
				Confidence: 0.88,
			}
			return out
		}
	}
	return out
}

// firstVisibleMenuItem returns a visible tappable child of the menu.
func (a *Analyzer) firstVisibleMenuItem(menu dom.NodeID) (dom.NodeID, bool) {
	found := dom.None
	a.sess.Tree().VisitVisibleTappable(func(n *dom.Node) bool {
		if n.Parent == menu {
			found = n.ID
			return false
		}
		return true
	})
	return found, found != dom.None
}

// tapManifestation returns the tap event type registered on the node,
// falling back to the application's tap manifestation.
func (a *Analyzer) tapManifestation(n *dom.Node) webevent.Type {
	for _, l := range n.Listeners {
		if l.IsTap() {
			return l
		}
	}
	return a.sess.Spec.Behavior.TapManifestation
}

// NavigatesAfterTap reports whether tapping the given node commits the
// session to a navigation (used when chaining predictions).
func (a *Analyzer) NavigatesAfterTap(target dom.NodeID) bool {
	if target == dom.None {
		return false
	}
	n := a.sess.Tree().Node(target)
	return n.NavigatesTo != "" && n.TogglesMenu == dom.None
}

// OpensMenu returns the menu that tapping the node would expand, or None.
func (a *Analyzer) OpensMenu(target dom.NodeID) dom.NodeID {
	if target == dom.None {
		return dom.None
	}
	n := a.sess.Tree().Node(target)
	if n.TogglesMenu != dom.None && a.sess.Tree().Node(n.TogglesMenu).Hidden {
		return n.TogglesMenu
	}
	return dom.None
}

// Package webapp models the suite of mobile Web applications used by the
// paper: the 12 "seen" applications that also train the event predictor
// (163, msn, slashdot, youtube, google, amazon, ebay, sina, espn, bbc, cnn,
// twitter) and the 6 "unseen" applications used only for evaluation (yahoo,
// nytimes, stackoverflow, taobao, tmall, jd).
//
// Each application is described by a Spec: the shape of its DOM (clickable
// density, link density, menus, page graph), the hardware workload of its
// event callbacks plus rendering work, and the behaviour of users
// interacting with it (scroll-run lengths, think times, burstiness,
// navigation propensity, and an intrinsic unpredictability/noise term).
// These parameters drive both the synthetic page builder and the synthetic
// interaction-trace generator, replacing the real webpages and recorded user
// traces of the original study.
package webapp

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/acmp"
	"repro/internal/dom"
	"repro/internal/simtime"
	"repro/internal/webevent"
)

// WorkloadDist describes the distribution of hardware work for one primitive
// interaction of an application. Cycle counts are expressed in millions of
// cycles on the CPI-reference (big) core; Tmem in milliseconds.
type WorkloadDist struct {
	// TmemMeanMs is the mean memory-bound time in ms.
	TmemMeanMs float64
	// TmemJitter is the relative jitter (±fraction of the mean).
	TmemJitter float64
	// CyclesMeanM is the mean compute work in millions of cycles.
	CyclesMeanM float64
	// CyclesJitter is the relative jitter (±fraction of the mean).
	CyclesJitter float64
	// HeavyProb is the probability an instance is "heavy" (a Type I
	// candidate whose work is multiplied by HeavyFactor).
	HeavyProb float64
	// HeavyFactor is the multiplier applied to heavy instances.
	HeavyFactor float64
}

// Sample draws one workload instance from the distribution.
func (d WorkloadDist) Sample(rng *rand.Rand) acmp.Workload {
	jitter := func(mean, rel float64) float64 {
		if mean <= 0 {
			return 0
		}
		v := mean * (1 + rel*(2*rng.Float64()-1))
		if v < 0 {
			v = 0
		}
		return v
	}
	tmem := jitter(d.TmemMeanMs, d.TmemJitter)
	cycles := jitter(d.CyclesMeanM, d.CyclesJitter)
	if d.HeavyProb > 0 && rng.Float64() < d.HeavyProb {
		cycles *= d.HeavyFactor
		tmem *= 1.3
	}
	return acmp.Workload{
		Tmem:   simtime.FromMillis(tmem),
		Cycles: int64(cycles * 1e6),
	}
}

// Behavior captures how users interact with an application.
type Behavior struct {
	// Noise is the probability that the user's next action deviates from
	// the "intent" the features would predict; it is the dominant driver of
	// per-application prediction accuracy.
	Noise float64
	// ScrollRunMean is the mean length of a run of consecutive move events.
	ScrollRunMean float64
	// ScrollGapMs is the mean gap between move events inside a run.
	ScrollGapMs float64
	// ThinkMeanMs and ThinkJitter describe the pause before a deliberate
	// action (tap or new scroll run).
	ThinkMeanMs float64
	ThinkJitter float64
	// BurstProb is the probability a deliberate action arrives in a burst
	// (short gap) right after the previous event, producing the event
	// interference the paper's Type II/III events come from.
	BurstProb float64
	// BurstGapMs is the mean gap of burst arrivals.
	BurstGapMs float64
	// NavProb is the probability a tap is a navigation (followed by a load).
	NavProb float64
	// MenuProb is the probability a tap is on a menu toggle.
	MenuProb float64
	// FormProb is the probability a tap is a form submission.
	FormProb float64
	// ScrollAffinity is the probability that, when idle, the user starts a
	// new scroll run rather than tapping.
	ScrollAffinity float64
	// AfterLoadScrollProb is the probability the first interaction after a
	// page load is a scroll (users scan new content before acting).
	AfterLoadScrollProb float64
	// MenuFollowProb is the probability that, right after expanding a menu,
	// the user taps one of its items.
	MenuFollowProb float64
	// TapManifestation is the DOM event type this app delivers taps as.
	TapManifestation webevent.Type
	// MoveManifestation is the DOM event type this app delivers moves as.
	MoveManifestation webevent.Type
}

// Spec describes one application of the benchmark suite.
type Spec struct {
	// Name is the application name used throughout the experiments.
	Name string
	// Seen marks applications whose training traces train the predictor.
	Seen bool
	// ClickableDensity is the target fraction of the viewport covered by
	// tappable elements.
	ClickableDensity float64
	// LinkDensity is the target fraction of the viewport covered by links.
	LinkDensity float64
	// MenuCount is the number of collapsible menus per page.
	MenuCount int
	// PageCount is the number of distinct pages in the navigation graph.
	PageCount int
	// PageHeightVP is the page height in viewport units.
	PageHeightVP float64
	// NodesPerViewport controls DOM density.
	NodesPerViewport int
	// Workloads maps each primitive interaction to its workload model.
	Workloads map[webevent.Interaction]WorkloadDist
	// Behavior is the user behaviour model for the application.
	Behavior Behavior
}

// String returns the app name.
func (s *Spec) String() string { return s.Name }

// SampleWorkload draws a ground-truth workload for an event of the given
// type. Menu toggles and form submissions carry a modest extra style/layout
// cost relative to plain taps.
func (s *Spec) SampleWorkload(typ webevent.Type, targetKind dom.Kind, rng *rand.Rand) acmp.Workload {
	d, ok := s.Workloads[typ.Interaction()]
	if !ok {
		d = WorkloadDist{TmemMeanMs: 5, CyclesMeanM: 50, CyclesJitter: 0.3}
	}
	w := d.Sample(rng)
	switch targetKind {
	case dom.Button: // menu toggles re-layout the expanded subtree
		w.Cycles = w.Cycles * 13 / 10
	case dom.Form:
		w.Cycles = w.Cycles * 12 / 10
	}
	return w
}

// PageName returns the canonical name of the i-th page of the application's
// navigation graph.
func (s *Spec) PageName(i int) string {
	if i <= 0 {
		return "home"
	}
	return fmt.Sprintf("page-%02d", i%s.PageCount)
}

// BuildPage deterministically generates the DOM tree of the named page. The
// same (application, page, seed) triple always yields the same tree, so
// navigation during trace generation and replay is reproducible.
func (s *Spec) BuildPage(page string, seed int64) *dom.Tree {
	rng := rand.New(rand.NewSource(seed ^ int64(hashString(s.Name+"/"+page))))
	const viewportH = 1000.0
	pageH := viewportH * s.PageHeightVP
	t := dom.NewTree(page, pageH, viewportH)
	root := t.Root()
	t.Node(root).Listeners = []webevent.Type{s.Behavior.MoveManifestation}

	bands := int(s.PageHeightVP + 0.5)
	if bands < 1 {
		bands = 1
	}
	tap := s.Behavior.TapManifestation

	// Collapsible menus near the top of the page with their toggle buttons.
	for m := 0; m < s.MenuCount; m++ {
		y := 80 + float64(m)*140
		menu := t.Add(&dom.Node{
			Kind: dom.Menu, Parent: root, Y: y + 50, Height: 260, Area: 0.22, Hidden: true,
		})
		t.Add(&dom.Node{
			Kind: dom.Button, Parent: root, Y: y, Height: 45, Area: 0.05,
			Listeners: []webevent.Type{tap}, TogglesMenu: menu,
		})
		items := 3 + rng.Intn(3)
		for i := 0; i < items; i++ {
			t.Add(&dom.Node{
				Kind: dom.MenuItem, Parent: menu, Y: y + 60 + float64(i)*45, Height: 40, Area: 0.05,
				Listeners:   []webevent.Type{tap},
				NavigatesTo: s.PageName(1 + rng.Intn(s.PageCount)),
			})
		}
	}

	// Per-viewport band content: links, buttons, images and text laid out to
	// approximate the app's clickable and link densities.
	for b := 0; b < bands; b++ {
		bandTop := float64(b) * viewportH
		// Links first, until the link density budget of this band is used.
		linkBudget := s.LinkDensity
		for linkBudget > 0.005 {
			area := 0.02 + 0.04*rng.Float64()
			if area > linkBudget {
				area = linkBudget
			}
			t.Add(&dom.Node{
				Kind: dom.Link, Parent: root,
				Y: bandTop + rng.Float64()*(viewportH-60), Height: 40 + rng.Float64()*30, Area: area,
				Listeners:   []webevent.Type{tap},
				NavigatesTo: s.PageName(1 + rng.Intn(s.PageCount)),
			})
			linkBudget -= area
		}
		// Non-link tappables (buttons, images with handlers) fill the rest of
		// the clickable budget.
		tapBudget := s.ClickableDensity - s.LinkDensity
		for tapBudget > 0.005 {
			area := 0.03 + 0.05*rng.Float64()
			if area > tapBudget {
				area = tapBudget
			}
			kind := dom.Image
			if rng.Float64() < 0.5 {
				kind = dom.Container
			}
			t.Add(&dom.Node{
				Kind: kind, Parent: root,
				Y: bandTop + rng.Float64()*(viewportH-80), Height: 60 + rng.Float64()*60, Area: area,
				Listeners: []webevent.Type{tap},
			})
			tapBudget -= area
		}
		// Inert text fills visual space but carries no listeners.
		for i := 0; i < s.NodesPerViewport/3; i++ {
			t.Add(&dom.Node{
				Kind: dom.Text, Parent: root,
				Y: bandTop + rng.Float64()*(viewportH-40), Height: 30, Area: 0.03,
			})
		}
	}

	// One search/login form on pages that submit.
	if s.Behavior.FormProb > 0 {
		form := t.Add(&dom.Node{
			Kind: dom.Form, Parent: root, Y: 30, Height: 50, Area: 0.08,
			Listeners: []webevent.Type{webevent.Submit, tap},
		})
		t.Add(&dom.Node{Kind: dom.Input, Parent: form, Y: 32, Height: 40, Area: 0.05})
	}
	return t
}

// hashString is a tiny FNV-1a used to derive page seeds; it avoids importing
// hash/fnv for a two-line use.
func hashString(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// registry is the ordered application suite. Order matters for experiment
// tables: seen applications first (in the paper's Fig. 8 order), then the
// unseen applications.
var registry = buildRegistry()

// Registry returns every application spec, seen applications first.
func Registry() []*Spec { return registry }

// SeenApps returns the 12 applications used for predictor training.
func SeenApps() []*Spec { return filter(true) }

// UnseenApps returns the 6 applications only used for evaluation.
func UnseenApps() []*Spec { return filter(false) }

// ByName returns the spec with the given name, or an error that lists the
// suite's names.
func ByName(name string) (*Spec, error) {
	for _, s := range registry {
		if s.Name == name {
			return s, nil
		}
	}
	names := make([]string, len(registry))
	for i, s := range registry {
		names[i] = s.Name
	}
	return nil, fmt.Errorf("webapp: unknown application %q (known: %s)", name, strings.Join(names, ", "))
}

func filter(seen bool) []*Spec {
	var out []*Spec
	for _, s := range registry {
		if s.Seen == seen {
			out = append(out, s)
		}
	}
	return out
}

// appParams is the compact per-application tuning table expanded by
// buildRegistry into full Specs.
type appParams struct {
	name      string
	seen      bool
	clickable float64
	links     float64
	menus     int
	pages     int
	heightVP  float64
	noise     float64
	scrollRun float64
	navProb   float64
	burstProb float64
	loadScale float64 // scales load workload (content-heavy sites load slower)
	tapScale  float64 // scales tap workload
	touchTap  bool    // delivers taps as touchstart instead of click
	touchMove bool    // delivers moves as touchmove instead of scroll
	formProb  float64
}

func buildRegistry() []*Spec {
	params := []appParams{
		// The 12 seen applications (Fig. 8 order).
		{"163", true, 0.27, 0.21, 2, 8, 6, 0.07, 9.0, 0.30, 0.22, 1.15, 1.10, false, false, 0.02},
		{"msn", true, 0.28, 0.20, 2, 8, 6, 0.05, 8.8, 0.28, 0.20, 1.10, 1.05, false, false, 0.02},
		{"slashdot", true, 0.14, 0.11, 1, 6, 7, 0.03, 10.5, 0.22, 0.15, 0.95, 0.90, false, false, 0.02},
		{"youtube", true, 0.42, 0.18, 1, 10, 5, 0.08, 7.6, 0.34, 0.25, 1.05, 1.20, true, true, 0.05},
		{"google", true, 0.24, 0.16, 1, 10, 3, 0.14, 6.5, 0.38, 0.30, 0.80, 0.85, false, false, 0.12},
		{"amazon", true, 0.45, 0.26, 2, 12, 6, 0.11, 8.0, 0.33, 0.28, 1.10, 1.15, true, true, 0.08},
		{"ebay", true, 0.40, 0.24, 2, 10, 6, 0.09, 8.0, 0.32, 0.26, 1.05, 1.10, true, true, 0.08},
		{"sina", true, 0.26, 0.20, 2, 8, 8, 0.08, 10.0, 0.26, 0.22, 1.20, 0.70, false, false, 0.02},
		{"espn", true, 0.28, 0.21, 2, 8, 6, 0.07, 9.2, 0.28, 0.24, 1.15, 1.10, false, false, 0.02},
		{"bbc", true, 0.27, 0.20, 2, 8, 7, 0.06, 9.6, 0.27, 0.21, 1.10, 1.05, false, false, 0.02},
		{"cnn", true, 0.29, 0.21, 2, 8, 7, 0.08, 9.4, 0.29, 0.26, 1.25, 1.15, false, false, 0.02},
		{"twitter", true, 0.38, 0.17, 1, 8, 9, 0.09, 11.0, 0.24, 0.30, 0.95, 1.00, true, true, 0.05},
		// The 6 unseen applications.
		{"yahoo", false, 0.29, 0.21, 2, 8, 6, 0.09, 9.0, 0.29, 0.23, 1.10, 1.05, false, false, 0.03},
		{"nytimes", false, 0.24, 0.19, 2, 8, 8, 0.09, 10.0, 0.25, 0.20, 1.20, 1.10, false, false, 0.02},
		{"stackoverflow", false, 0.20, 0.16, 1, 8, 7, 0.08, 9.8, 0.24, 0.18, 0.95, 0.95, false, false, 0.04},
		{"taobao", false, 0.44, 0.25, 2, 12, 6, 0.11, 8.0, 0.33, 0.28, 1.15, 1.15, true, true, 0.08},
		{"tmall", false, 0.42, 0.24, 2, 12, 6, 0.10, 8.0, 0.32, 0.27, 1.15, 1.12, true, true, 0.08},
		{"jd", false, 0.41, 0.24, 2, 12, 6, 0.10, 8.2, 0.31, 0.26, 1.12, 1.10, true, true, 0.08},
	}
	specs := make([]*Spec, 0, len(params))
	for _, p := range params {
		tapManifest := webevent.Click
		if p.touchTap {
			tapManifest = webevent.TouchStart
		}
		moveManifest := webevent.Scroll
		if p.touchMove {
			moveManifest = webevent.TouchMove
		}
		specs = append(specs, &Spec{
			Name:             p.name,
			Seen:             p.seen,
			ClickableDensity: p.clickable,
			LinkDensity:      p.links,
			MenuCount:        p.menus,
			PageCount:        p.pages,
			PageHeightVP:     p.heightVP,
			NodesPerViewport: 12,
			Workloads: map[webevent.Interaction]WorkloadDist{
				webevent.LoadInteraction: {
					TmemMeanMs: 280 * p.loadScale, TmemJitter: 0.3,
					CyclesMeanM: 2300 * p.loadScale, CyclesJitter: 0.35,
					HeavyProb: 0.10, HeavyFactor: 2.2,
				},
				webevent.TapInteraction: {
					TmemMeanMs: 18 * p.tapScale, TmemJitter: 0.4,
					CyclesMeanM: 290 * p.tapScale, CyclesJitter: 0.45,
					HeavyProb: 0.13, HeavyFactor: 2.6,
				},
				webevent.MoveInteraction: {
					TmemMeanMs: 2.0, TmemJitter: 0.4,
					CyclesMeanM: 9 * p.tapScale, CyclesJitter: 0.5,
					HeavyProb: 0.08, HeavyFactor: 7.0,
				},
			},
			Behavior: Behavior{
				Noise:               p.noise,
				ScrollRunMean:       p.scrollRun,
				ScrollGapMs:         650,
				ThinkMeanMs:         9000,
				ThinkJitter:         0.6,
				BurstProb:           p.burstProb,
				BurstGapMs:          160,
				NavProb:             p.navProb,
				MenuProb:            0.18,
				FormProb:            p.formProb,
				ScrollAffinity:      0.85,
				AfterLoadScrollProb: 0.95,
				MenuFollowProb:      0.92,
				TapManifestation:    tapManifest,
				MoveManifestation:   moveManifest,
			},
		})
	}
	// Sanity: names must be unique.
	names := make(map[string]bool, len(specs))
	for _, s := range specs {
		if names[s.Name] {
			panic("webapp: duplicate application name " + s.Name)
		}
		names[s.Name] = true
	}
	return specs
}

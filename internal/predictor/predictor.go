package predictor

import (
	"fmt"

	"repro/internal/dom"
	"repro/internal/simtime"
	"repro/internal/stats"
	"repro/internal/webapp"
	"repro/internal/webevent"
)

// Config controls the behaviour of the predictor.
type Config struct {
	// ConfidenceThreshold terminates sequence prediction once the cumulative
	// confidence of the predicted sequence drops below it (paper default:
	// 70%).
	ConfidenceThreshold float64
	// MaxDegree caps the number of events predicted ahead in one round.
	MaxDegree int
	// UseDOMAnalysis enables the program-analysis half of the predictor
	// (LNES restriction and Semantic-Tree hints). Disabling it reproduces
	// the paper's Sec. 6.5 ablation.
	UseDOMAnalysis bool
}

// DefaultConfig returns the paper's configuration: a 70% confidence
// threshold with DOM analysis enabled.
func DefaultConfig() Config {
	return Config{ConfidenceThreshold: 0.70, MaxDegree: 8, UseDOMAnalysis: true}
}

// MaxDegreeLimit is the largest MaxDegree a session may run with. How far
// PES predicts per round sets its cost: on a 2-vCPU x86-64 host one cnn
// session took 0.1 ms at the defaults, ~0.3 ms at this limit with a
// near-zero threshold, and 0.66 s at a negative threshold and a degree of
// 100,000.
const MaxDegreeLimit = 64

// Validate reports whether a session may run with c: ConfidenceThreshold
// in (0, 1] and MaxDegree in [1, MaxDegreeLimit]. Configurations from
// outside the process (campaign bodies, shard requests) are checked with
// it before any session is built.
func (c Config) Validate() error {
	if !(c.ConfidenceThreshold > 0 && c.ConfidenceThreshold <= 1) {
		return fmt.Errorf("predictor confidence threshold %g out of range (0, 1]", c.ConfidenceThreshold)
	}
	if c.MaxDegree < 1 || c.MaxDegree > MaxDegreeLimit {
		return fmt.Errorf("predictor max degree %d out of range [1, %d]", c.MaxDegree, MaxDegreeLimit)
	}
	return nil
}

func (c Config) withDefaults() Config {
	if c.ConfidenceThreshold == 0 {
		c.ConfidenceThreshold = 0.70
	}
	if c.MaxDegree == 0 {
		c.MaxDegree = 8
	}
	return c
}

// Predictor predicts upcoming events for one interaction session. It owns a
// replica of the session's DOM state (fed by Observe) so that its features
// and program analysis always reflect what the user currently sees.
type Predictor struct {
	cfg      Config
	learner  *SequenceLearner
	sess     *webapp.Session
	analyzer *Analyzer

	win         Window
	menuOpened  dom.NodeID
	lastTrigger simtime.Time
	haveLast    bool

	gapStats map[webevent.Interaction]*stats.Running

	// evaluations counts learner evaluations, for the overhead analysis.
	evaluations int

	// Reusable buffers of the per-event prediction fast path. A prediction
	// step must not allocate (the paper budgets ~2 µs per evaluation and a
	// campaign server replays millions of events), so the feature vector, the
	// learner's probability/restriction scratch, and the sequence buffer all
	// live on the predictor and are recycled across steps. They make a
	// Predictor single-goroutine state, which it already was.
	featBuf  [NumFeatures]float64
	scratch  predictScratch
	predsBuf []Predicted
}

// lnesLoadOnly is the constant LNES of a committed navigation: the only
// possible next event is the destination page's load.
var lnesLoadOnly = []webevent.Type{webevent.Load}

// New creates a predictor for one session of the given application. The
// model is shared (trained offline across applications); the session state
// is per-user.
func New(learner *SequenceLearner, spec *webapp.Spec, domSeed int64, cfg Config) *Predictor {
	cfg = cfg.withDefaults()
	sess := webapp.NewSession(spec, domSeed)
	return &Predictor{
		cfg:      cfg,
		learner:  learner,
		sess:     sess,
		analyzer: NewAnalyzer(sess),
		gapStats: make(map[webevent.Interaction]*stats.Running),
	}
}

// Session exposes the predictor's DOM session (shared with the feature
// extraction of the scheduler's cost model).
func (p *Predictor) Session() *webapp.Session { return p.sess }

// Evaluations returns the number of logistic-model evaluations performed so
// far (used by the overhead analysis of Sec. 6.3).
func (p *Predictor) Evaluations() int { return p.evaluations }

// Observe informs the predictor that an actual event occurred. It updates
// the feature window, the inter-arrival statistics, and the DOM replica.
func (p *Predictor) Observe(e *webevent.Event) {
	if p.haveLast {
		gap := e.Trigger.Sub(p.lastTrigger)
		in := e.Type.Interaction()
		if p.gapStats[in] == nil {
			p.gapStats[in] = &stats.Running{}
		}
		p.gapStats[in].Add(float64(gap))
	}
	p.lastTrigger = e.Trigger
	p.haveLast = true

	p.win.Observe(e.Type, p.sess.Tree().ViewportCenterY())
	mut := p.sess.Apply(e.Type, dom.NodeID(e.Target))
	if mut.Kind == dom.MenuToggled && !p.sess.Tree().Node(mut.Menu).Hidden {
		p.menuOpened = mut.Menu
	} else if e.Type != webevent.Load {
		p.menuOpened = dom.None
	}
}

// expectedGap estimates the inter-arrival gap preceding an event of the
// given type, from the session's own history when available and from
// interaction-scale priors otherwise.
func (p *Predictor) expectedGap(typ webevent.Type) simtime.Duration {
	in := typ.Interaction()
	if r := p.gapStats[in]; r != nil && r.Count() >= 3 {
		return simtime.Duration(r.Mean())
	}
	switch in {
	case webevent.LoadInteraction:
		return 180 * simtime.Millisecond
	case webevent.MoveInteraction:
		return 650 * simtime.Millisecond
	default:
		return 3 * simtime.Second
	}
}

// PredictNext returns a single-step prediction regardless of the confidence
// threshold (used by the accuracy evaluation and as the seed of sequence
// prediction). ok is false only if the learner is unusable.
func (p *Predictor) PredictNext() (Predicted, bool) {
	pred, ok := p.predictStep(&p.win, p.menuOpened, p.sess.PendingNavigation() != "",
		p.sess.Tree().ViewportCenterY())
	return pred, ok
}

// predictStep produces one prediction from the given (possibly virtual)
// window and session flags.
func (p *Predictor) predictStep(win *Window, menuOpened dom.NodeID, pendingNav bool, viewportY float64) (Predicted, bool) {
	if p.cfg.UseDOMAnalysis {
		var analysis Analysis
		if pendingNav || menuOpened != dom.None {
			// Re-derive hints for the virtual state.
			if pendingNav {
				analysis = Analysis{
					LNES: lnesLoadOnly,
					Hint: Hint{Valid: true, Type: webevent.Load, Target: dom.None,
						TargetKind: dom.Document, Confidence: 0.96},
				}
			} else {
				analysis = p.analyzer.Analyze(menuOpened)
			}
		} else {
			analysis = p.analyzer.Analyze(dom.None)
		}
		if analysis.Hint.Valid {
			h := analysis.Hint
			return Predicted{
				Type:        h.Type,
				Target:      h.Target,
				TargetKind:  h.TargetKind,
				Confidence:  h.Confidence,
				ExpectedGap: p.expectedGap(h.Type),
				FromDOMHint: true,
			}, true
		}
		return p.learnerStep(win, viewportY, analysis.LNES)
	}
	return p.learnerStep(win, viewportY, nil)
}

// learnerStep runs the statistical learner, optionally restricted to the
// LNES, and attaches a hypothetical target. It is allocation-free: the
// feature vector and the learner scratch are the predictor's reusable
// buffers.
func (p *Predictor) learnerStep(win *Window, viewportY float64, allowed []webevent.Type) (Predicted, bool) {
	FeaturesInto(&p.featBuf, p.sess.Tree(), win, viewportY)
	p.evaluations++
	typ, conf, err := p.learner.predictWith(&p.scratch, p.featBuf[:], allowed)
	if err != nil {
		return Predicted{}, false
	}
	pred := Predicted{
		Type:        typ,
		Target:      dom.None,
		TargetKind:  dom.Document,
		Confidence:  conf,
		ExpectedGap: p.expectedGap(typ),
	}
	if typ.IsTap() {
		// The hypothetical target: the visible tappable node with the
		// largest on-screen area, the most likely touch target.
		pred.Target, pred.TargetKind = p.sess.Tree().TypicalTapTarget()
	}
	return pred, true
}

// PredictSequence predicts the upcoming event sequence, terminating when the
// cumulative confidence falls below the configured threshold or the degree
// cap is reached. It may return an empty slice when even the first
// prediction is below the threshold (in which case PES behaves reactively).
// The returned slice is a reusable buffer owned by the predictor; it is
// valid until the next PredictSequence call.
func (p *Predictor) PredictSequence() []Predicted {
	preds := p.predsBuf[:0]
	vwin := p.win // value copy: the virtual window advanced by predictions
	menuOpened := p.menuOpened
	pendingNav := p.sess.PendingNavigation() != ""
	viewportY := p.sess.Tree().ViewportCenterY()
	cum := 1.0

	for len(preds) < p.cfg.MaxDegree {
		pred, ok := p.predictStep(&vwin, menuOpened, pendingNav, viewportY)
		if !ok {
			break
		}
		next := cum * pred.Confidence
		if next < p.cfg.ConfidenceThreshold {
			break
		}
		cum = next
		pred.Cumulative = cum
		preds = append(preds, pred)

		// Advance the virtual state as if the predicted event had occurred.
		vwin.Observe(pred.Type, viewportY)
		switch {
		case pred.Type == webevent.Load:
			pendingNav = false
			menuOpened = dom.None
		case pred.Type.IsTap():
			pendingNav = p.analyzer.NavigatesAfterTap(pred.Target)
			menuOpened = p.analyzer.OpensMenu(pred.Target)
		case pred.Type.IsMove():
			// One scroll step moves the viewport by one scroll-step fraction.
			if p.sess.Tree().PageHeight > 0 {
				viewportY += p.sess.Tree().ViewportHeight * dom.ScrollStepFraction / p.sess.Tree().PageHeight
				if viewportY > 1 {
					viewportY = 1
				}
			}
			pendingNav = false
			menuOpened = dom.None
		}
	}
	p.predsBuf = preds
	return preds
}

// Matches reports whether an actual event matches a predicted one. The paper
// predicts (and validates) the type of the event; the speculative frame for
// a matching type is committed.
func Matches(pred Predicted, actual *webevent.Event) bool {
	return pred.Type == actual.Type
}

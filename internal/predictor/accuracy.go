package predictor

import (
	"repro/internal/mlr"
	"repro/internal/trace"
	"repro/internal/webapp"
)

// AccuracyResult is the per-application prediction accuracy measured on an
// evaluation corpus (Fig. 8 of the paper).
type AccuracyResult struct {
	App      string
	Seen     bool
	Events   int
	Correct  int
	Accuracy float64
}

// EvaluateAccuracy measures next-event prediction accuracy per application
// over the evaluation corpus: before each event (other than a session's
// initial load) the predictor predicts the next event type from the history
// so far, and the prediction is scored against the event that actually
// occurs. useDOM toggles the program-analysis half (Sec. 6.5 ablation).
func EvaluateAccuracy(learner *SequenceLearner, corpus trace.Corpus, useDOM bool) ([]AccuracyResult, error) {
	byApp := make(map[string]*AccuracyResult)
	var order []string

	for _, tr := range corpus {
		spec, err := webapp.ByName(tr.App)
		if err != nil {
			return nil, err
		}
		cfg := DefaultConfig()
		cfg.UseDOMAnalysis = useDOM
		p := New(learner, spec, tr.DOMSeed, cfg)

		res := byApp[tr.App]
		if res == nil {
			res = &AccuracyResult{App: tr.App, Seen: spec.Seen}
			byApp[tr.App] = res
			order = append(order, tr.App)
		}
		for i, e := range tr.Events {
			if i > 0 {
				pred, ok := p.PredictNext()
				if ok {
					res.Events++
					if Matches(pred, e) {
						res.Correct++
					}
				}
			}
			p.Observe(e)
		}
	}

	out := make([]AccuracyResult, 0, len(order))
	for _, app := range order {
		r := byApp[app]
		if r.Events > 0 {
			r.Accuracy = float64(r.Correct) / float64(r.Events)
		}
		out = append(out, *r)
	}
	return out, nil
}

// TrainOnSeenApps is a convenience that generates a training corpus from the
// seen applications and trains a learner on it, mirroring the paper's
// offline training on >100 traces across the 12 seen applications.
func TrainOnSeenApps(tracesPerApp int, baseSeed int64) (*SequenceLearner, trace.Corpus, error) {
	corpus := trace.GenerateCorpus(webapp.SeenApps(), tracesPerApp, baseSeed, trace.PurposeTrain, trace.Options{})
	learner := NewSequenceLearner()
	if err := learner.Train(corpus, mlr.TrainConfig{}); err != nil {
		return nil, nil, err
	}
	return learner, corpus, nil
}

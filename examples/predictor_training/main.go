// predictor_training walks through the offline training pipeline of the PES
// event predictor: generate training traces for the seen applications, train
// the logistic-regression sequence learner, and evaluate its accuracy on
// fresh traces of both seen and unseen applications — including the Sec. 6.5
// ablation without DOM analysis.
package main

import (
	"fmt"
	"log"

	"repro/internal/predictor"
	"repro/internal/trace"
	"repro/internal/webapp"
)

func main() {
	// Training corpus: several synthetic sessions per seen application.
	const tracesPerApp = 8
	learner, err := predictor.TrainOnSeenApps(tracesPerApp, 1000, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trained on %d traces (%d per seen application)\n", tracesPerApp*len(webapp.SeenApps()), tracesPerApp)

	// Evaluation corpus: new users (different seeds) on all 18 applications.
	eval := trace.GenerateCorpus(webapp.Registry(), 3, 700000, trace.PurposeEval, trace.Options{})

	withDOM, err := predictor.EvaluateAccuracy(learner, eval, true)
	if err != nil {
		log.Fatal(err)
	}
	withoutDOM, err := predictor.EvaluateAccuracy(learner, eval, false)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\n%-15s %-7s %12s %12s\n", "application", "corpus", "with DOM", "without DOM")
	var seen, unseen, seenN, unseenN float64
	for i, r := range withDOM {
		kind := "unseen"
		if r.Seen {
			kind = "seen"
			seen += r.Accuracy
			seenN++
		} else {
			unseen += r.Accuracy
			unseenN++
		}
		fmt.Printf("%-15s %-7s %11.1f%% %11.1f%%\n", r.App, kind, 100*r.Accuracy, 100*withoutDOM[i].Accuracy)
	}
	fmt.Printf("\naverage accuracy: seen apps %.1f%%, unseen apps %.1f%%\n", 100*seen/seenN, 100*unseen/unseenN)
	fmt.Println("(paper: 91.3% seen, 89.2% unseen; DOM ablation costs ~5%)")
}

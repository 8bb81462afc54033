// Quickstart: train the PES predictor, simulate one cnn.com session under
// PES and under the reactive EBS baseline, and compare energy and QoS.
package main

import (
	"fmt"
	"log"

	"repro"
)

func main() {
	// 1. Train the event sequence learner offline (the paper trains once on
	//    recorded traces of the 12 seen applications).
	learner, err := pes.TrainPredictor(6, 1)
	if err != nil {
		log.Fatal(err)
	}

	// 2. Pick an application and generate a synthetic user session.
	app, err := pes.AppByName("cnn")
	if err != nil {
		log.Fatal(err)
	}
	tr := pes.GenerateTrace(app, 42)
	fmt.Printf("session: %d events over %.0f s on %s\n", tr.Count(), tr.Duration().Seconds(), app.Name)

	// 3. Replay the same session under EBS (reactive) and PES (proactive).
	platform := pes.Exynos5410()
	ebs := pes.RunReactive(platform, app.Name, tr.Events, pes.NewEBS(platform))
	scheduler := pes.NewPES(platform, learner, app, tr.DOMSeed, pes.DefaultPredictorConfig())
	proactive := pes.RunProactive(platform, app.Name, tr.Events, scheduler)

	// 4. Compare.
	fmt.Printf("%-6s energy=%8.1f mJ  QoS violations=%5.1f%%\n",
		"EBS", ebs.TotalEnergyMJ, 100*ebs.ViolationRate)
	fmt.Printf("%-6s energy=%8.1f mJ  QoS violations=%5.1f%%  (committed speculative frames: %d, mis-predictions: %d)\n",
		"PES", proactive.TotalEnergyMJ, 100*proactive.ViolationRate,
		proactive.CommittedFrames, proactive.Mispredictions)
	saving := 100 * (ebs.TotalEnergyMJ - proactive.TotalEnergyMJ) / ebs.TotalEnergyMJ
	fmt.Printf("PES saves %.1f%% energy relative to EBS on this session\n", saving)
}

// Crossposting: the RQ3 deep-dive (§6, Figs. 11-16). Cross-platform
// posting behaviour: daily activity, bridge tools, content similarity,
// hashtags and toxicity, plus a threshold-sensitivity sweep over the
// similarity cutoff (the paper uses cosine >= 0.7).
//
//	go run ./examples/crossposting
package main

import (
	"context"
	"fmt"
	"log"

	"flock/internal/analysis"
	"flock/internal/core"
	"flock/internal/report"
	"flock/internal/stats"
	"flock/internal/toxsvc"
)

func main() {
	cfg := core.DefaultConfig(400)
	cfg.World.Seed = 17
	cfg.ScoreToxicity = false

	res, err := core.Run(context.Background(), cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Print(report.Fig11Daily(res.Daily))
	fmt.Println()
	fmt.Print(report.Fig12Sources(res.Sources))
	fmt.Println()
	fmt.Print(report.Fig13Crossposters(res.Sources))
	fmt.Println()
	fmt.Print(report.Fig14Overlap(res.Overlap))
	fmt.Println()
	fmt.Print(report.Fig16Toxicity(res.Toxicity))
	fmt.Println()

	// Sensitivity: how do the Fig. 14 results move with the similarity
	// threshold? (§6.1 uses 0.7; lower thresholds admit more pairs.)
	fmt.Println("similarity threshold sweep (Fig. 14 sensitivity):")
	for _, th := range []float64{0.5, 0.6, 0.7, 0.8, 0.9} {
		o := analysis.Engine{}.RQ3Overlap(res.Dataset, analysis.OverlapOptions{Threshold: th})
		fmt.Printf("  cos>=%.1f  similar mean %-8s completely different %s\n",
			th, stats.Percent(o.MeanSimilar), stats.Percent(o.CompletelyDifferentFrac))
	}

	// Toxicity threshold sensitivity (§6.3 discusses 0.5 vs 0.8). The
	// crawl above did not score posts, so score locally with the same
	// model the Perspective-style service uses.
	fmt.Println("toxicity threshold sweep (Fig. 16 sensitivity):")
	for _, th := range []float64{0.5, 0.8} {
		x := analysis.Engine{}.RQ3Toxicity(res.Dataset, analysis.ToxicityOptions{
			Threshold: th,
			ScoreFn:   toxsvc.Score,
		})
		fmt.Printf("  tox>%.1f  tweets %-8s statuses %s\n",
			th, stats.Percent(x.OverallTweetToxic), stats.Percent(x.OverallStatusToxic))
	}
}

// Centralization: the RQ1 deep-dive (§4, Figs. 4-6). Runs the pipeline,
// prints the top-instance histogram, the top-share curve and the
// instance-size quantile CDFs, and demonstrates driving the analysis
// layer directly for a custom question: how concentrated would the
// fediverse be if mastodon.social did not exist?
//
//	go run ./examples/centralization
package main

import (
	"context"
	"fmt"
	"log"

	"flock/internal/analysis"
	"flock/internal/core"
	"flock/internal/crawler"
	"flock/internal/report"
	"flock/internal/stats"
)

func main() {
	cfg := core.DefaultConfig(600)
	cfg.World.Seed = 11
	cfg.ScoreToxicity = false

	res, err := core.Run(context.Background(), cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Print(report.Fig4TopInstances(res.RQ1))
	fmt.Println()
	fmt.Print(report.Fig5TopShare(res.RQ1))
	fmt.Println()
	fmt.Print(report.Fig6SizeQuantiles(res.RQ1))
	fmt.Println()

	// Custom question: drop mastodon.social from the dataset and re-run
	// the RQ1 analysis — the "what if the flagship didn't exist"
	// counterfactual.
	ds := res.Dataset
	counter := crawler.NewDataset()
	counter.Instances = ds.Instances
	for i := range ds.Pairs {
		if ds.Pairs[i].FinalDomain() == "mastodon.social" {
			continue
		}
		counter.Pairs = append(counter.Pairs, ds.Pairs[i])
	}
	alt := analysis.Engine{}.RQ1(counter)
	fmt.Println("counterfactual: without mastodon.social")
	fmt.Printf("  users kept: %d of %d\n", len(counter.Pairs), len(ds.Pairs))
	fmt.Printf("  top-25%% share: %s (with flagship: %s)\n",
		stats.Percent(alt.Top25Share), stats.Percent(res.RQ1.Top25Share))
	fmt.Printf("  gini: %.3f (with flagship: %.3f)\n", alt.Gini, res.RQ1.Gini)
}

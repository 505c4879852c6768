// Command figures regenerates the paper's figures from a stored dataset
// (written by migratrack -out) or, absent one, from a fresh pipeline
// run.
//
// Usage:
//
//	figures -data DIR [-fig N|all]
//	figures -migrants 500 -fig 5
//	figures -workers 4 -timing        # parallel analysis + per-pass wall-clock
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"time"

	"flock/internal/core"
	"flock/internal/report"
	"flock/internal/store"
)

func main() {
	data := flag.String("data", "", "dataset directory written by migratrack -out")
	migrants := flag.Int("migrants", 500, "world size when no -data is given")
	seed := flag.Uint64("seed", 1, "world seed when no -data is given")
	fig := flag.String("fig", "all", `figure number 1-16 or "all"`)
	workers := flag.Int("workers", 0, "worker pool of the overlap, toxicity and hashtag passes (0 = GOMAXPROCS); results are identical at any setting")
	timing := flag.Bool("timing", false, "log per-analysis elapsed wall-clock to stderr")
	flag.Parse()

	var res *core.Result
	cfg := core.DefaultConfig(*migrants)
	cfg.ScoreToxicity = false
	cfg.AnalysisWorkers = *workers
	if *timing {
		cfg.Logf = log.Printf
	}
	analyzeStart := time.Now()
	if *data != "" {
		ds, manifest, err := store.Load(*data)
		if err != nil {
			log.Fatalf("loading dataset: %v", err)
		}
		log.Printf("dataset loaded: %d pairs, anonymized=%v", manifest.Counts.Pairs, manifest.Anonymized)
		res = core.Analyze(ds, cfg)
	} else {
		cfg.World.Seed = *seed
		var err error
		res, err = core.Run(context.Background(), cfg)
		if err != nil {
			log.Fatalf("pipeline: %v", err)
		}
	}
	if *timing {
		log.Printf("pipeline+analysis total %s", time.Since(analyzeStart).Round(time.Millisecond))
	}

	if *fig == "all" {
		fmt.Print(report.All(res))
		return
	}
	n, err := strconv.Atoi(*fig)
	if err != nil || report.Figure(res, n) == "" {
		fmt.Fprintf(os.Stderr, "unknown -fig %q\n", *fig)
		os.Exit(2)
	}
	fmt.Print(report.Figure(res, n))
}

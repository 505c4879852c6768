// Command figures runs the full reproduction pipeline and prints the
// paper's figures: it generates a synthetic world, serves the simulated
// platforms, runs the paper's §3 crawl against them and computes every
// analysis. With -data it analyzes a stored dataset instead.
//
// Usage:
//
//	figures [-migrants N] [-seed S] [-toxicity] [-out DIR [-salt S]] [-fig N|all|summary]
//	figures -data DIR [-fig N|all|summary]
//	figures -workers 4 -timing        # parallel analysis + per-pass and crawl progress logs
//
// With -out the crawled dataset is anonymized (§3.4) and written as
// gzip JSONL with a manifest, which -data loads. A loaded dataset is
// already anonymized, so -out with -data is an error.
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
	data := flag.String("data", "", "dataset directory written by figures -out")
	migrants := flag.Int("migrants", 500, "world size when no -data is given")
	seed := flag.Uint64("seed", 1, "world seed when no -data is given (identical seeds give identical runs)")
	toxicity := flag.Bool("toxicity", false, "score every post via the Perspective-style service during the crawl (slower, faithful); otherwise scores are computed locally at analysis time")
	out := flag.String("out", "", "directory to write the anonymized dataset to")
	salt := flag.String("salt", "flock-default-salt", "anonymization salt for -out")
	fig := flag.String("fig", "all", fmt.Sprintf(`what to print: a figure number 1-%d, "all", or "summary"`, report.Figures))
	workers := flag.Int("workers", 0, "worker pool of the overlap, toxicity and hashtag passes (0 = GOMAXPROCS); results are identical at any setting")
	timing := flag.Bool("timing", false, "log crawl progress and per-analysis elapsed wall-clock to stderr")
	flag.Parse()
	if *data != "" && *out != "" {
		fmt.Fprintln(os.Stderr, "-out needs a crawl: a dataset loaded with -data is already anonymized")
		os.Exit(2)
	}
	figNum, err := strconv.Atoi(*fig)
	if *fig != "all" && *fig != "summary" && (err != nil || figNum < 1 || figNum > report.Figures) {
		fmt.Fprintf(os.Stderr, "unknown -fig %q (want 1-%d, all, summary)\n", *fig, report.Figures)
		os.Exit(2)
	}

	var res *core.Result
	cfg := core.DefaultConfig(*migrants)
	cfg.ScoreToxicity = *toxicity
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
		res, err = core.Run(context.Background(), cfg)
		if err != nil {
			log.Fatalf("pipeline: %v", err)
		}
	}
	if *timing {
		log.Printf("pipeline+analysis total %s", time.Since(analyzeStart).Round(time.Millisecond))
	}

	switch *fig {
	case "all":
		fmt.Print(report.All(res))
	case "summary":
		fmt.Print(report.Summary(res))
	default:
		fmt.Print(report.Figure(res, figNum))
	}

	if *out != "" {
		anon := store.NewAnonymizer(*salt).Anonymize(res.Dataset)
		if err := store.Save(*out, anon, true); err != nil {
			log.Fatalf("saving dataset: %v", err)
		}
		fmt.Fprintf(os.Stderr, "anonymized dataset written to %s\n", *out)
	}
}

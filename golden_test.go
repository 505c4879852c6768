package flock

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"flock/internal/core"
	"flock/internal/report"
	"flock/internal/world"
)

// TestSeed99Goldens pins the outputs of the seed-99 worlds that the
// benchmark checks (bench/workloads.go): paper_300's report, the dataset
// toxicity_200 crawls with every post scored, and the uninterrupted
// crawl that resume_150's resumed crawl must reproduce. A refactor must
// leave all three unchanged. A deliberate change of output updates these
// digests and bench/workloads.go together, in a change to the benchmark.
func TestSeed99Goldens(t *testing.T) {
	digest := func(b []byte) string {
		sum := sha256.Sum256(b)
		return hex.EncodeToString(sum[:])
	}
	t.Run("report_300", func(t *testing.T) {
		// `figures -migrants 300 -seed 99` prints this report.
		cfg := core.DefaultConfig(300)
		cfg.World.Seed = 99
		cfg.ScoreToxicity = false
		res, err := core.Run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		const want = "f8e715918c95f6709e4092a16b810b29a25e5d47699e140cff7f55fbef3ac897"
		if got := digest([]byte(report.All(res))); got != want {
			t.Fatalf("report digest %s, want %s", got, want)
		}
	})
	for _, tc := range []struct {
		name          string
		migrants      int
		scoreToxicity bool
		want          string
	}{
		{"crawl_200_toxicity", 200, true, "fd499d2f79253490e54f1378a8c60f822f9f664dc537877dd27e3ae3f2cf1949"},
		{"crawl_150", 150, false, "ac15413c8bc856a4e27ae7b883d9cfdf11d0f2aaec8fa0672dc17691bbf2f118"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			wcfg := world.DefaultConfig(tc.migrants)
			wcfg.Seed = 99
			env, err := core.NewEnv(ctx, wcfg)
			if err != nil {
				t.Fatal(err)
			}
			defer env.Close()
			cfg := core.DefaultConfig(tc.migrants)
			cfg.ScoreToxicity = tc.scoreToxicity
			ds, err := env.Crawl(ctx, cfg)
			if err != nil {
				t.Fatal(err)
			}
			raw, err := json.Marshal(ds)
			if err != nil {
				t.Fatal(err)
			}
			if got := digest(raw); got != tc.want {
				t.Fatalf("dataset digest %s, want %s", got, tc.want)
			}
		})
	}
}

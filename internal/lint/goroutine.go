package lint

import (
	"go/ast"

	"flock/internal/lint/analysis"
)

// Goroutine confines naked `go` statements to the packages whose job is
// concurrency: internal/parallel (the deterministic map-reduce kernels)
// and internal/httpkit (the transport layer's task group and hedging
// race). internal/memnet is not among them: the fabric runs each handler
// inside the caller's RoundTrip and starts no goroutine. Anywhere else,
// an ad-hoc goroutine is how nondeterminism leaks into analysis results
// — unsynchronized float accumulation, map iteration races,
// completion-order-dependent output — and how work escapes the kernels'
// panic propagation and bounded pools. Analysis and simulation code
// must express parallelism through parallel.MapSlice / ReduceSharded
// instead. Test files are exempt (tests legitimately spawn helpers and
// servers); deliberate exceptions carry
// `//lint:allow goroutine <reason>`.
var Goroutine = &analysis.Analyzer{
	Name: "goroutine",
	Doc:  "forbid naked go statements outside internal/parallel and internal/httpkit; use the parallel kernels",
	Run: func(pass *analysis.Pass) error {
		if pass.Pkg.PathHasSegment("parallel", "httpkit") {
			return nil
		}
		eachFile(pass, false, func(f *ast.File) {
			ast.Inspect(f, func(n ast.Node) bool {
				if g, ok := n.(*ast.GoStmt); ok {
					pass.Reportf(g.Pos(), "naked go statement outside the concurrency packages; route fan-out through parallel.MapSlice/ReduceSharded so pooling, panic propagation and deterministic merges apply")
				}
				return true
			})
		})
		return nil
	},
}

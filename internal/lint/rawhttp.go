package lint

import (
	"go/ast"

	"flock/internal/lint/analysis"
)

// rawhttpFuncs are the net/http convenience entry points that issue
// outbound requests on the package-global client.
var rawhttpFuncs = map[string]bool{"Get": true, "Post": true, "PostForm": true, "Head": true}

// RawHTTP forbids ad-hoc outbound HTTP outside internal/httpkit:
// http.Get/Post/PostForm/Head, any use of http.DefaultClient, and
// http.Client composite literals. Every outbound request must flow
// through httpkit.Client so the per-host circuit breakers and the
// HealthRegistry error taxonomy see it — a request that bypasses them
// silently corrupts the crawl's coverage accounting. Test files are
// exempt (they often drive httptest servers directly).
//
// It also forbids httpkit.Client composite literals everywhere outside
// internal/httpkit, test files included. The Client's fields are
// unexported, so outside httpkit only the empty literal httpkit.Client{}
// compiles; it silently misses everything New wires (breakers, hedging,
// clock injection), so the rule still flags it. Construct clients with
// httpkit.New and functional options.
var RawHTTP = &analysis.Analyzer{
	Name: "rawhttp",
	Doc:  "forbid raw outbound HTTP (http.Get/Post, http.DefaultClient, http.Client literals) and httpkit.Client struct literals outside internal/httpkit",
	Run: func(pass *analysis.Pass) error {
		if pass.Pkg.PathHasSegment("httpkit") {
			return nil
		}
		// The httpkit.Client literal rule covers test files too: a test
		// constructing a literal client would keep compiling after New
		// gains wiring the literal misses.
		eachFile(pass, true, func(f *ast.File) {
			ast.Inspect(f, func(n ast.Node) bool {
				lit, ok := n.(*ast.CompositeLit)
				if !ok || lit.Type == nil {
					return true
				}
				if sel, ok := pkgSel(f, lit.Type, "flock/internal/httpkit"); ok && sel == "Client" {
					pass.Reportf(lit.Pos(), "httpkit.Client struct literal outside internal/httpkit; construct clients with httpkit.New(...) so option-wired behaviour (hedging, breakers, clock) is not silently dropped")
					return false
				}
				return true
			})
		})
		eachFile(pass, false, func(f *ast.File) {
			ast.Inspect(f, func(n ast.Node) bool {
				if lit, ok := n.(*ast.CompositeLit); ok && lit.Type != nil {
					if sel, ok := pkgSel(f, lit.Type, "net/http"); ok && sel == "Client" {
						pass.Reportf(lit.Pos(), "http.Client literal outside internal/httpkit bypasses breaker/health accounting; build clients with httpkit.NewHTTPClient and wrap them in httpkit.Client")
						return false
					}
				}
				e, isExpr := n.(ast.Expr)
				if !isExpr {
					return true
				}
				sel, ok := pkgSel(f, e, "net/http")
				if !ok {
					return true
				}
				switch {
				case rawhttpFuncs[sel]:
					pass.Reportf(n.Pos(), "http.%s issues an outbound request outside httpkit; route it through httpkit.Client so breakers and the health taxonomy account for it", sel)
					return false
				case sel == "DefaultClient":
					pass.Reportf(n.Pos(), "http.DefaultClient bypasses the per-host circuit breakers; use an httpkit.Client built with httpkit.WithBreaker")
					return false
				}
				return true
			})
		})
		return nil
	},
}

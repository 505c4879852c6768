package lint

import (
	"go/ast"

	"flock/internal/lint/analysis"
)

// walltimePkgs are the simulated-service and persistence packages that
// must read time through vclock (vclock.Wall or an injected
// vclock.NowFunc) so whole universes replay deterministically at any
// speed.
var walltimePkgs = []string{
	"fediverse", "birdsite", "toxsvc", "trendsvc", "indexsvc", "world", "store",
}

// walltimeFuncs are the wall-clock entry points the analyzer forbids.
// Both calls and bare references (aliasing `now := time.Now`) are caught.
var walltimeFuncs = map[string]bool{"Now": true, "Since": true, "Sleep": true}

// Walltime forbids time.Now/time.Since/time.Sleep in simulated-service
// packages. Those packages read time through vclock.Wall, the one
// sanctioned wall-clock gateway, so a virtual clock can replace it.
var Walltime = &analysis.Analyzer{
	Name: "walltime",
	Doc:  "forbid wall-clock reads (time.Now/Since/Sleep) in simulated-service packages; inject a vclock.NowFunc instead",
	Run: func(pass *analysis.Pass) error {
		if !pass.Pkg.PathHasSegment(walltimePkgs...) {
			return nil
		}
		eachFile(pass, false, func(f *ast.File) {
			ast.Inspect(f, func(n ast.Node) bool {
				e, isExpr := n.(ast.Expr)
				if !isExpr {
					return true
				}
				if sel, ok := pkgSel(f, e, "time"); ok && walltimeFuncs[sel] {
					pass.Reportf(n.Pos(), "time.%s in a simulated-service package breaks replayability; read time from an injected vclock.NowFunc (default vclock.Wall)", sel)
					return false
				}
				return true
			})
		})
		return nil
	},
}

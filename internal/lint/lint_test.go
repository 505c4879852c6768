package lint_test

import (
	"strings"
	"testing"

	"flock/internal/lint"
	"flock/internal/lint/analysis"
	"flock/internal/lint/linttest"
)

const fixtures = "testdata/src"

func TestWalltime(t *testing.T) {
	linttest.Run(t, fixtures, "walltime/store", lint.Walltime)
}

func TestSeededRand(t *testing.T) {
	linttest.Run(t, fixtures, "seededrand/gen", lint.SeededRand)
}

func TestRawHTTP(t *testing.T) {
	linttest.Run(t, fixtures, "rawhttp/fetch", lint.RawHTTP)
}

func TestCtxFlow(t *testing.T) {
	linttest.Run(t, fixtures, "ctxflow/internal/pipe", lint.CtxFlow)
}

func TestCtxFlowExemptsMain(t *testing.T) {
	linttest.Run(t, fixtures, "ctxflow/internal/mainpkg", lint.CtxFlow)
}

func TestAtomicFile(t *testing.T) {
	linttest.Run(t, fixtures, "atomicfile/store", lint.AtomicFile)
}

func TestAllowSuppression(t *testing.T) {
	linttest.Run(t, fixtures, "allow/store", lint.Walltime)
}

// TestDirectiveValidation checks the driver's own findings for malformed
// //lint:allow directives. These land on the directive's line, where a
// want comment cannot sit (it would merge into the directive text), so
// this asserts on driver output directly instead of using linttest.
func TestDirectiveValidation(t *testing.T) {
	pkg, err := lint.LoadFixture(fixtures, "allowbad/store")
	if err != nil {
		t.Fatal(err)
	}
	findings := lint.Run([]*analysis.Package{pkg}, []*analysis.Analyzer{lint.Walltime})
	count := func(sub string) int {
		n := 0
		for _, f := range findings {
			if strings.Contains(f.Message, sub) {
				n++
			}
		}
		return n
	}
	if count("is missing its reason") != 1 {
		t.Errorf("want one missing-reason finding, got %v", findings)
	}
	if count(`unknown analyzer "sundial"`) != 1 {
		t.Errorf("want one unknown-analyzer finding, got %v", findings)
	}
	// Malformed directives suppress nothing: both time.Now sites survive.
	if count("time.Now in a simulated-service") != 2 {
		t.Errorf("want two surviving walltime findings, got %v", findings)
	}
	// 2 walltime + 2 driver findings.
	if len(findings) != 4 {
		t.Errorf("got %d findings, want 4: %v", len(findings), findings)
	}
}

func TestAnalyzersListedOnce(t *testing.T) {
	seen := map[string]bool{}
	for _, a := range lint.Analyzers() {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %+v is missing metadata", a)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
	}
	for _, name := range []string{"walltime", "seededrand", "rawhttp", "ctxflow", "atomicfile"} {
		if !seen[name] {
			t.Errorf("analyzer %q not registered", name)
		}
	}
}

func TestGoroutine(t *testing.T) {
	linttest.Run(t, fixtures, "goroutine/worker", lint.Goroutine)
}

func TestGoroutineExemptsConcurrencyPackages(t *testing.T) {
	linttest.Run(t, fixtures, "goroutine/parallel", lint.Goroutine)
}

func TestGoroutineReportsMemnet(t *testing.T) {
	linttest.Run(t, fixtures, "goroutine/memnet", lint.Goroutine)
}

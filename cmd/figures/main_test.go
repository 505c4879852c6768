package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestUnknownFigRefusedFirst: figures refuses an unknown -fig before it
// crawls or loads anything. With -data naming no directory it must exit
// 2 on the figure instead of failing to load the dataset. The test runs
// main in a child process of the test binary, with FIGURES_ARGS as its
// arguments.
func TestUnknownFigRefusedFirst(t *testing.T) {
	if args, ok := os.LookupEnv("FIGURES_ARGS"); ok {
		os.Args = append([]string{"figures"}, strings.Fields(args)...)
		main()
		return
	}
	missing := filepath.Join(t.TempDir(), "missing")
	for _, args := range []string{"-fig 99 -data " + missing, "-fig 0 -data " + missing, "-fig x -data " + missing} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestUnknownFigRefusedFirst$")
		cmd.Env = append(os.Environ(), "FIGURES_ARGS="+args)
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(out), "unknown -fig") {
			t.Errorf("figures %s: %v, output %q; want exit 2 on the figure", args, err, out)
		}
	}
}

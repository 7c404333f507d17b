package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"

	"godpm"
	"godpm/internal/sweep"
)

// runAsMain makes the test binary act as dpmbatch when a test re-executes
// it, so the tests drive the real command line.
const runAsMain = "DPMBATCH_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runAsMain) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// dpmbatch runs the command with args and returns its stdout, stderr and
// exit code.
func dpmbatch(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runAsMain+"=1")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
	case errors.As(err, &exit):
		code = exit.ExitCode()
	default:
		t.Fatalf("dpmbatch %s: %v", strings.Join(args, " "), err)
	}
	return out.String(), errb.String(), code
}

// TestStudySeries pins -format series to the study's own rendering of its
// points run in-process on an engine.
func TestStudySeries(t *testing.T) {
	stdout, stderr, code := dpmbatch(t, "-study", "timeout", "-tasks", "10", "-seed", "1", "-format", "series")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, stderr)
	}
	st, err := godpm.ResolveStudy("timeout", 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	pts, err := st.RunWith(context.Background(), godpm.NewEngine(godpm.EngineOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := sweep.WriteCSV(&want, st.Param, pts, st.BuildBaseline != nil); err != nil {
		t.Fatal(err)
	}
	if stdout != want.String() {
		t.Fatalf("series diverged from the in-process rendering:\n got:\n%s\nwant:\n%s", stdout, want.String())
	}
	if !strings.HasPrefix(stderr, "14 jobs on ") {
		t.Fatalf("stderr lacks the engine summary:\n%s", stderr)
	}
}

// TestRefusals: flag combinations and names the command cannot run exit 2
// with nothing on stdout.
func TestRefusals(t *testing.T) {
	for _, c := range []struct {
		args   []string
		stderr string
	}{
		{[]string{"-format", "series", "-scenarios", "A1"}, "-format series writes one -study's series"},
		{[]string{"-format", "series", "-study", "timeout", "-replicates", "2"}, "-format series writes one -study's series"},
		{[]string{"-scenarios", "nope"}, `unknown scenario "nope"; available: [A1 A2 A3 A4 B C B-perip B-openloop A1-regulator]`},
		{[]string{"-study", "nope"}, `unknown study "nope"`},
	} {
		stdout, stderr, code := dpmbatch(t, c.args...)
		if code != 2 || stdout != "" || !strings.HasPrefix(stderr, c.stderr) {
			t.Errorf("dpmbatch %s: exit %d, stdout %q, stderr %q; want exit 2, no stdout, stderr %q…",
				strings.Join(c.args, " "), code, stdout, stderr, c.stderr)
		}
	}
}

package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"testing"

	"godpm"
	"godpm/internal/report"
)

// runAsMain makes the test binary act as dpmsim when a test re-executes
// it, so the tests drive the real command line.
const runAsMain = "DPMSIM_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runAsMain) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// dpmsim runs the command with args and returns its stdout and stderr,
// failing the test unless it exits 0.
func dpmsim(t *testing.T, args ...string) (stdout, stderr string) {
	t.Helper()
	stdout, stderr, code := dpmsimExit(t, args...)
	if code != 0 {
		t.Fatalf("dpmsim %s: exit %d\n%s", strings.Join(args, " "), code, stderr)
	}
	return stdout, stderr
}

// dpmsimExit runs the command with args and returns its stdout, stderr
// and exit code.
func dpmsimExit(t *testing.T, args ...string) (stdout, stderr string, code int) {
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
		t.Fatalf("dpmsim %s: %v", strings.Join(args, " "), err)
	}
	return out.String(), errb.String(), code
}

// TestTopologyGolden pins the Fig. 1 component graph of every Table 2
// scenario byte for byte against testdata/topology.golden. The output
// holds no floats, so it is the same on every architecture.
func TestTopologyGolden(t *testing.T) {
	stdout, stderr := dpmsim(t, "-topology", "-run", "all")
	if stderr != "" {
		t.Fatalf("dpmsim wrote to stderr:\n%s", stderr)
	}
	want, err := os.ReadFile("testdata/topology.golden")
	if err != nil {
		t.Fatal(err)
	}
	if stdout != string(want) {
		t.Fatalf("dpmsim -topology diverged from testdata/topology.golden:\n%s", stdout)
	}
}

// TestTable2MatchesLibrary checks that the command's Table 2 block is the
// library's rendering of the same scenario run in-process. Both run on
// this host, so the float columns agree bit for bit on any architecture.
// The simulation-speed lines measure wall clock and are matched by shape.
func TestTable2MatchesLibrary(t *testing.T) {
	stdout, stderr := dpmsim(t, "-run", "A1", "-tasks", "20", "-seed", "1")

	tuning := godpm.DefaultTuning()
	tuning.NumTasks, tuning.Seed = 20, 1
	s, err := godpm.ScenarioByID("A1", tuning)
	if err != nil {
		t.Fatal(err)
	}
	row, err := godpm.RunScenario(s)
	if err != nil {
		t.Fatal(err)
	}

	if want := "running A1 (" + s.Description + ")...\n"; stderr != want {
		t.Fatalf("stderr = %q, want %q", stderr, want)
	}
	table := "Table 2 — Performances of the DPM in the different simulations\n" +
		godpm.FormatTable2([]godpm.Row{row}) +
		"\n(shape comparison: absolute numbers depend on the synthetic\n" +
		" power/battery/thermal characterisation; see README.md)\n"
	speed, ok := strings.CutPrefix(stdout, table)
	if !ok {
		t.Fatalf("stdout does not start with the library's Table 2:\n got:\n%s\nwant prefix:\n%s", stdout, table)
	}
	speedLine := regexp.MustCompile(`^sim speed A1 : DPM [0-9]+\.[0-9] Kcycle/s, baseline [0-9]+\.[0-9] Kcycle/s\n$`)
	if !speedLine.MatchString(speed) {
		t.Fatalf("speed line %q does not match %v", speed, speedLine)
	}
}

// TestMarkdownMatchesLibrary checks that -format md writes the report
// package's rendering of the same scenario run in-process, and exits 3
// exactly when a shape check fails.
func TestMarkdownMatchesLibrary(t *testing.T) {
	stdout, stderr, code := dpmsimExit(t, "-format", "md", "-run", "A1", "-tasks", "20", "-seed", "1")

	tuning := godpm.DefaultTuning()
	tuning.NumTasks, tuning.Seed = 20, 1
	s, err := godpm.ResolveScenario("A1", tuning)
	if err != nil {
		t.Fatal(err)
	}
	row, err := godpm.RunScenario(s)
	if err != nil {
		t.Fatal(err)
	}
	rows := []godpm.Row{row}
	var want bytes.Buffer
	opt := report.Options{Title: "godpm — Table 2 reproduction (Conti, DATE 2005)", Details: true}
	if err := report.Write(&want, rows, opt); err != nil {
		t.Fatal(err)
	}
	if stdout != want.String() {
		t.Fatalf("dpmsim -format md diverged from report.Write:\n got:\n%s\nwant:\n%s", stdout, want.String())
	}
	wantCode, wantErr := 0, "running A1 ("+s.Description+")...\n"
	if !report.AllPass(report.ShapeChecks(rows)) {
		wantCode, wantErr = 3, wantErr+"WARNING: some shape checks failed\n"
	}
	if code != wantCode || stderr != wantErr {
		t.Fatalf("exit %d, stderr %q; want exit %d, stderr %q", code, stderr, wantCode, wantErr)
	}
}

// TestRefusals: an unknown scenario or format exits 2 before anything
// runs.
func TestRefusals(t *testing.T) {
	for _, c := range []struct {
		args   []string
		stderr string
	}{
		{[]string{"-run", "nope"}, `unknown scenario "nope"; available: [A1 A2 A3 A4 B C B-perip B-openloop A1-regulator]` + "\n"},
		{[]string{"-format", "html"}, `unknown format "html" (want text or md)` + "\n"},
	} {
		stdout, stderr, code := dpmsimExit(t, c.args...)
		if code != 2 || stdout != "" || stderr != c.stderr {
			t.Errorf("dpmsim %s: exit %d, stdout %q, stderr %q; want exit 2, stderr %q",
				strings.Join(c.args, " "), code, stdout, stderr, c.stderr)
		}
	}
}

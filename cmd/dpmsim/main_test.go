package main

import (
	"bytes"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"testing"

	"godpm"
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

// dpmsim runs the command with args and returns its stdout and stderr.
func dpmsim(t *testing.T, args ...string) (stdout, stderr string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runAsMain+"=1")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		t.Fatalf("dpmsim %s: %v\n%s", strings.Join(args, " "), err, errb.Bytes())
	}
	return out.String(), errb.String()
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

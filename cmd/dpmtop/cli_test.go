package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// runAsMain makes the test binary act as dpmtop when a test re-executes
// it, so the tests drive the real command line.
const runAsMain = "DPMTOP_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runAsMain) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestFlagErrors: a bad flag, or a target list naming no target, exits 2
// and names the problem before anything is polled.
func TestFlagErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		name string // what stderr must mention
	}{
		{[]string{"-nosuch"}, "-nosuch"},
		{[]string{"-once", "-interval", "soon"}, "-interval"},
		{[]string{"-once", "-timeout", "-1x"}, "-timeout"},
		{[]string{"-once", "-json=maybe"}, "-json"},
		{[]string{"-once", "-targets", " , "}, "no targets"},
	} {
		cmd := exec.Command(os.Args[0], tc.args...)
		cmd.Env = append(os.Environ(), runAsMain+"=1")
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(stderr.String(), tc.name) {
			t.Errorf("dpmtop %s: %v, stderr %q; want exit 2 naming %s", strings.Join(tc.args, " "), err, stderr.String(), tc.name)
		}
	}
}

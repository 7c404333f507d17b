package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// runAsMain makes the test binary act as dpmremote when a test
// re-executes it, so the tests drive the real command line.
const runAsMain = "DPMREMOTE_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runAsMain) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestFlagErrors: a bad or missing flag exits 2 and names the flag,
// before the store is opened or a port is bound.
func TestFlagErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		name string // what stderr must mention
	}{
		{[]string{"-nosuch"}, "-nosuch"},
		{[]string{"-store", t.TempDir(), "-max-inflight", "many"}, "-max-inflight"},
		{[]string{"-store", t.TempDir(), "-drain-grace", "soon"}, "-drain-grace"},
		{[]string{"-addr", "127.0.0.1:0"}, "-store"},
	} {
		cmd := exec.Command(os.Args[0], tc.args...)
		cmd.Env = append(os.Environ(), runAsMain+"=1")
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(stderr.String(), tc.name) {
			t.Errorf("dpmremote %s: %v, stderr %q; want exit 2 naming %s", strings.Join(tc.args, " "), err, stderr.String(), tc.name)
		}
	}
}

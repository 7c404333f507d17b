package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"regexp"
	"strings"
	"testing"
)

// runAsMain makes the test binary act as dpmarena when a test re-executes
// it, so the tests drive the real command line.
const runAsMain = "DPMARENA_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runAsMain) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// dpmarena runs the command with args and returns its stdout, stderr and
// exit code.
func dpmarena(t *testing.T, args ...string) (stdout, stderr string, code int) {
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
		t.Fatalf("dpmarena %s: %v", strings.Join(args, " "), err)
	}
	return out.String(), errb.String(), code
}

// TestCommandRerunIsCacheServed runs one small tournament twice over one
// -cache directory: both runs print the same CSV leaderboard byte for
// byte, and the second simulates nothing. An unknown policy is a flag
// error naming the policy.
func TestCommandRerunIsCacheServed(t *testing.T) {
	args := []string{"-policies", "dpm,alwayson", "-scenarios", "steady,bursty", "-seeds", "2", "-tasks", "8",
		"-format", "csv", "-cache", t.TempDir()}
	summary := regexp.MustCompile(`(?m)^2 policies × 2 scenarios × 2 seeds on \d+ workers: (\d+) simulated, (\d+) cache hits, 0 errors$`)

	first, stderr, code := dpmarena(t, args...)
	m := summary.FindStringSubmatch(stderr)
	if code != 0 || m == nil || m[1] != "8" {
		t.Fatalf("first run: exit %d, want 0 and 8 simulated:\n%s", code, stderr)
	}
	if !strings.HasPrefix(first, "rank,") || strings.Count(first, "\n") < 3 {
		t.Fatalf("first run printed no CSV leaderboard:\n%s", first)
	}
	second, stderr, code := dpmarena(t, args...)
	m = summary.FindStringSubmatch(stderr)
	if code != 0 || m == nil || m[1] != "0" || m[2] != "8" {
		t.Fatalf("second run: exit %d, want 0 with 0 simulated and 8 cache hits:\n%s", code, stderr)
	}
	if second != first {
		t.Fatalf("the cache-served leaderboard differs:\n%s\nvs\n%s", first, second)
	}

	_, stderr, code = dpmarena(t, "-policies", "dpm,nosuchpolicy", "-scenarios", "steady", "-seeds", "1", "-tasks", "4")
	if code != 2 || !strings.Contains(stderr, "nosuchpolicy") {
		t.Fatalf("unknown policy: exit %d, stderr %q, want exit 2 naming the policy", code, stderr)
	}
}

package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// runAsMain makes the test binary act as dpmtrace when a test re-executes
// it, so the tests drive the real command line.
const runAsMain = "DPMTRACE_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runAsMain) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestDefaultRunGolden runs the command with no flags in an empty
// directory and pins the VCD and CSV it writes to the root trace goldens
// (scenario A1, 30 tasks per IP, the DPM run).
func TestDefaultRunGolden(t *testing.T) {
	bin, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cmd := exec.Command(bin)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), runAsMain+"=1")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		t.Fatalf("dpmtrace: %v\n%s", err, errb.Bytes())
	}
	if errb.Len() != 0 {
		t.Fatalf("dpmtrace wrote to stderr:\n%s", errb.Bytes())
	}
	head, tail, ok := strings.Cut(out.String(), "\n")
	if !ok || !strings.HasPrefix(head, "A1: 30 tasks in ") || tail != "wrote dpm.vcd and dpm.csv\n" {
		t.Fatalf("stdout:\n%s", out.Bytes())
	}
	for file, golden := range map[string]string{"dpm.vcd": "A1.vcd", "dpm.csv": "A1.csv"} {
		got, err := os.ReadFile(filepath.Join(dir, file))
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join("..", "..", "testdata", golden))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s diverged from testdata/%s (%d vs %d bytes)", file, golden, len(got), len(want))
		}
	}
}

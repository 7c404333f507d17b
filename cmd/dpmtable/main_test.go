package main

import (
	"bytes"
	"os"
	"os/exec"
	"testing"
)

// runAsMain makes the test binary act as dpmtable when a test re-executes
// it, so the golden test drives the real command line.
const runAsMain = "DPMTABLE_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runAsMain) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestTable1Golden pins everything dpmtable prints — the paper's Table 1,
// its rule script, the full decision table and the coverage analysis of
// the literal paper table — byte for byte against testdata/table1.golden.
// The output holds no floats, so it is the same on every architecture.
func TestTable1Golden(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-decisions", "-coverage", "-dsl")
	cmd.Env = append(os.Environ(), runAsMain+"=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("dpmtable: %v\n%s", err, stderr.Bytes())
	}
	if stderr.Len() != 0 {
		t.Fatalf("dpmtable wrote to stderr:\n%s", stderr.Bytes())
	}
	want, err := os.ReadFile("testdata/table1.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := stdout.Bytes(); !bytes.Equal(got, want) {
		t.Fatalf("dpmtable output diverged from testdata/table1.golden (%d vs %d bytes):\n%s", len(got), len(want), got)
	}
}

package soc

import (
	"os/exec"
	"regexp"
	"testing"
)

// TestSteadyStepsInline builds this package with the compiler's inlining
// report and requires the sampler's steady loop to inline the battery's
// and the die's one-sub-step steps. The KiBaM step sits just under the
// compiler's inlining budget (75 of 80); an edit that pushes either step
// over it turns the step back into a call per sample, which costs the
// sampler its register-held state and which no test of results notices.
func TestSteadyStepsInline(t *testing.T) {
	// go test puts the toolchain that runs it first on PATH.
	out, err := exec.Command("go", "build", "-gcflags=-m", ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build -gcflags=-m: %v\n%s", err, out)
	}
	for _, step := range []string{`battery\.\(\*KiBaM\)\.Step`, `thermal\.\(\*Node\)\.Step`} {
		re := regexp.MustCompile(`(?m)accountant\.go:\d+:\d+: inlining call to ` + step + `$`)
		if !re.Match(out) {
			t.Errorf("accountant.go does not inline %s; the compiler said:\n%s", step, out)
		}
	}
}

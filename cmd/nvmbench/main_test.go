package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestStrayArgumentRejected pins that an argument left over after the
// flags is a usage error naming it, not a silent stop of flag parsing:
// "-json DIR" leaves DIR over, and the flags after it must not be
// dropped. The run must end before any experiment starts.
func TestStrayArgumentRejected(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-json", "outdir", "-experiment", "nosuch"}, &stdout, &stderr)
	if code != 2 {
		t.Fatalf("exit %d, want 2 (stderr %q)", code, stderr.String())
	}
	for _, want := range []string{`"outdir"`, "-json=DIR"} {
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("stderr %q does not contain %s", stderr.String(), want)
		}
	}
	if stdout.Len() != 0 {
		t.Errorf("printed %q before rejecting the argument", stdout.String())
	}
}

// TestFlagsParsedFromArgs drives run with the flags it is given: -list
// prints the one experiment list, repl included, and an unknown
// experiment is a usage error.
func TestFlagsParsedFromArgs(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-list: exit %d, stderr %q", code, stderr.String())
	}
	for _, id := range []string{"fig8", "repl"} {
		if !strings.Contains(stdout.String(), "  "+id+" ") {
			t.Errorf("-list output lacks %s:\n%s", id, stdout.String())
		}
	}
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-json=" + t.TempDir(), "-experiment", "nosuch"}, &stdout, &stderr); code != 2 {
		t.Errorf("-experiment nosuch: exit %d, want 2 (stderr %q)", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "nosuch") {
		t.Errorf("stderr %q does not name the unknown experiment", stderr.String())
	}
}

// TestUnknownFormatRejected pins that an unknown -format is a usage
// error before any experiment runs, as an unknown -experiment is.
func TestUnknownFormatRejected(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-format", "bogus", "-experiment", "fig10", "-quick", "-scale", "1", "-ops", "100"}, &stdout, &stderr)
	if code != 2 {
		t.Fatalf("exit %d, want 2 (stderr %q)", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), `"bogus"`) {
		t.Errorf("stderr %q does not name the unknown format", stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("printed %q before rejecting the format", stdout.String())
	}
}

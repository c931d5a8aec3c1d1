package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestBadPresetRejectedBeforeLoad pins that a preset other than one of
// the five letters is a usage error (exit 2) reported before any row is
// loaded — the empty string included, which must not index past its end.
func TestBadPresetRejectedBeforeLoad(t *testing.T) {
	for _, preset := range []string{"", "Z", "AB", "a"} {
		var stdout, stderr bytes.Buffer
		code := run([]string{"ycsb", "-preset", preset, "-rows", "1000000"}, &stdout, &stderr)
		if code != 2 {
			t.Errorf("-preset %q: exit %d, want 2 (stderr %q)", preset, code, stderr.String())
		}
		if strings.Contains(stdout.String(), "loading") {
			t.Errorf("-preset %q: loaded rows before rejecting the preset", preset)
		}
		if !strings.Contains(stderr.String(), "preset") {
			t.Errorf("-preset %q: stderr %q does not name the preset", preset, stderr.String())
		}
	}
}

// TestArchsListedInFixedOrder pins archs' output: every architecture, in
// one order, the same on every call.
func TestArchsListedInFixedOrder(t *testing.T) {
	want := "  3tier    3 Tier BM\n" +
		"  mem      Main Memory\n" +
		"  direct   NVM Direct\n" +
		"  basic    Basic NVM BM\n" +
		"  ssd      SSD BM\n"
	for i := 0; i < 20; i++ {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"archs"}, &stdout, &stderr); code != 0 {
			t.Fatalf("archs: exit %d, stderr %q", code, stderr.String())
		}
		if got := stdout.String(); got != want {
			t.Fatalf("archs printed\n%s\nwant\n%s", got, want)
		}
	}
}

// TestYCSBRuns drives a small run end to end and checks the usage errors
// that remain: an unknown architecture and an unknown command.
func TestYCSBRuns(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"ycsb", "-arch", "mem", "-dram", "0", "-rows", "500", "-preset", "B", "-ops", "200"}, &stdout, &stderr)
	if code != 0 || !strings.Contains(stdout.String(), "200 transactions") {
		t.Fatalf("ycsb: exit %d\nstdout %s\nstderr %s", code, stdout.String(), stderr.String())
	}
	if code := run([]string{"ycsb", "-arch", "nosuch"}, &stdout, &stderr); code != 2 {
		t.Errorf("unknown architecture: exit %d, want 2", code)
	}
	if code := run([]string{"nosuch"}, &stdout, &stderr); code != 2 {
		t.Errorf("unknown command: exit %d, want 2", code)
	}
}

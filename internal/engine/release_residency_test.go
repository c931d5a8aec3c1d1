//go:build linux && !race

package engine

import (
	"bytes"
	"os"
	"runtime"
	"strconv"
	"testing"

	"nvmstore/internal/btree"
	"nvmstore/internal/core"
)

// rssAnon returns the process's resident anonymous memory in bytes, the
// RssAnon line of /proc/self/status: where the NVM medium's host pages are
// counted while they are resident.
func rssAnon(t *testing.T) int64 {
	t.Helper()
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		t.Skipf("no /proc/self/status: %v", err)
	}
	for _, line := range bytes.Split(status, []byte("\n")) {
		if v, ok := bytes.CutPrefix(line, []byte("RssAnon:")); ok {
			kb, err := strconv.ParseInt(string(bytes.TrimSuffix(bytes.TrimSpace(v), []byte(" kB"))), 10, 64)
			if err != nil {
				t.Fatalf("RssAnon line %q: %v", line, err)
			}
			return kb << 10
		}
	}
	t.Skip("no RssAnon line in /proc/self/status")
	return 0
}

// TestCheckpointReleasesTheLog writes more than 32 MB of log — field
// updates of 16 rows, so that the pages stay few — and runs a full
// checkpoint: the process's resident anonymous memory must fall by at
// least 90 % of the log's written extent, which the checkpoint hands back
// to the host.
func TestCheckpointReleasesTheLog(t *testing.T) {
	cfg := testConfig(core.ThreeTier)
	cfg.WALBytes = 40 << 20
	e, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e.SetMaintenance(MaintenanceOptions{SoftFill: 0.95, HardFill: 0.99}) // no paced cut before the checkpoint
	tr, err := e.CreateTree(1, shiftPayload, btree.LayoutSorted)
	if err != nil {
		t.Fatal(err)
	}
	keys := ascending(0, 16)
	insertEach(t, e, tr, keys)
	val := make([]byte, shiftPayload)
	for i := 0; e.log.Bytes() < 32<<20; i++ {
		val[0] = byte(i)
		e.Begin()
		if _, err := tr.UpdateField(keys[i%len(keys)], 0, val); err != nil {
			t.Fatal(err)
		}
		if err := e.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	written := e.log.Bytes()
	runtime.GC()
	before := rssAnon(t)
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	fell := before - rssAnon(t)
	t.Logf("log extent %.1f MB, RssAnon fell %.1f MB", float64(written)/(1<<20), float64(fell)/(1<<20))
	if fell < written*9/10 {
		t.Fatalf("RssAnon fell %d bytes at the checkpoint, want at least 90 %% of the log's %d", fell, written)
	}
	runtime.KeepAlive(e)
}

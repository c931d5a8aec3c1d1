package ssd

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"nvmstore/internal/offheap"
)

func filled(b byte) []byte { return bytes.Repeat([]byte{b}, 256) }

// TestSnapshotFormat pins WriteSnapshot's bytes: a 28-byte header (magic,
// page size, capacity, page count), then each written slot in ascending
// order as its 8-byte number and its page.
func TestSnapshotFormat(t *testing.T) {
	d, _ := testDevice(16)
	for _, slot := range []int64{9, 1, 5} {
		d.WritePage(slot, filled(byte(slot)))
	}
	var got bytes.Buffer
	if err := d.WriteSnapshot(&got); err != nil {
		t.Fatal(err)
	}
	le := binary.LittleEndian
	want := le.AppendUint64(nil, 0x535344534e415031) // "SSDSNAP1"
	want = le.AppendUint32(want, 256)
	want = le.AppendUint64(want, 16)
	want = le.AppendUint64(want, 3)
	for _, slot := range []uint64{1, 5, 9} {
		want = append(le.AppendUint64(want, slot), filled(byte(slot))...)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("snapshot is %d bytes, differs from the format's %d", got.Len(), len(want))
	}
}

// TestSnapshotRestoreReplacesPages restores a snapshot into a device that
// wrote other slots: those read zeroes again, Allocated counts the
// snapshot's pages, and the pages the device held before are released.
func TestSnapshotRestoreReplacesPages(t *testing.T) {
	collect(t, 0) // no device of an earlier test is reachable
	src, _ := testDevice(16)
	for _, slot := range []int64{1, 5, 9} {
		src.WritePage(slot, filled(byte(slot)))
	}
	var snap bytes.Buffer
	if err := src.WriteSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	d, _ := testDevice(16)
	for _, slot := range []int64{2, 5, 7} {
		d.WritePage(slot, filled(0xee))
	}
	if err := d.ReadSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	if d.Allocated() != 3 {
		t.Fatalf("Allocated() = %d after restoring 3 pages, want 3", d.Allocated())
	}
	got := make([]byte, 256)
	for slot := int64(0); slot < 16; slot++ {
		inSnap := slot == 1 || slot == 5 || slot == 9
		want := make([]byte, 256)
		if inSnap {
			want = filled(byte(slot))
		}
		d.ReadPage(slot, got)
		if !bytes.Equal(got, want) || d.Written(slot) != inSnap {
			t.Fatalf("slot %d after restore: reads %d..., Written %v", slot, got[0], d.Written(slot))
		}
	}
	// src and d's fresh arena hold a chunk each; d's first one is gone.
	collect(t, 2*offheap.ChunkSize)
	runtime.KeepAlive(src)
	runtime.KeepAlive(d)
}

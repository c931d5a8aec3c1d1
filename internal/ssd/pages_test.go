package ssd

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	"nvmstore/internal/simclock"
)

// leafPage returns a page of size bytes whose first used bytes are
// non-zero and the rest zero, the shape of a bulk-loaded B-tree leaf.
func leafPage(size, used int) []byte {
	p := make([]byte, size)
	for i := 0; i < used; i++ {
		p[i] = byte(i%251 + 1)
	}
	return p
}

// TestStoredBytesFollowsPrefix pins what the device stores for a page: its
// non-zero prefix in whole grains, kept when a write shrinks, moved to a
// full block when one outgrows it, the old block left behind.
func TestStoredBytesFollowsPrefix(t *testing.T) {
	const pageSize = 16 << 10
	d := New(DefaultConfig(pageSize, 64), &simclock.Clock{})
	got := make([]byte, pageSize)
	step := func(what string, slot int64, p []byte, stored int64) {
		t.Helper()
		d.WritePage(slot, p)
		if d.StoredBytes() != stored {
			t.Fatalf("%s: StoredBytes() = %d, want %d", what, d.StoredBytes(), stored)
		}
		d.ReadPage(slot, got)
		if !bytes.Equal(got, p) {
			t.Fatalf("%s: slot %d reads back different bytes", what, slot)
		}
	}
	step("a 10-row leaf", 0, leafPage(pageSize, 10192), 10<<10)
	step("an all-zero page", 1, make([]byte, pageSize), 10<<10)
	step("a shorter write keeps its block", 0, leafPage(pageSize, 100), 10<<10)
	step("a longer write that fits", 0, leafPage(pageSize, 10<<10), 10<<10)
	step("an outgrown page moves to a full block", 0, leafPage(pageSize, 10<<10+1), 26<<10)
	step("and stays there", 0, leafPage(pageSize, 1), 26<<10)
	step("a first write takes a new block", 2, leafPage(pageSize, 9<<10+1), 36<<10)
	step("a zero page gets its first block", 1, leafPage(pageSize, 5), 37<<10)
	if d.Allocated() != 3 {
		t.Fatalf("Allocated() = %d, want 3", d.Allocated())
	}
}

// FuzzSSDPages drives a small device with writes and reads decoded from
// the fuzz input, three bytes an operation: op, then a little-endian
// uint16 that sets a written page's last non-zero byte. op&3 is 0 or 1
// for a write of a page with a non-zero prefix, 2 for an all-zero page, 3
// for a read; op>>2 picks one of a few slots, so slots are rewritten,
// shrink and outgrow their blocks. Against a map of the last write per
// slot, every read returns it, Allocated, Written, Stats and the clock
// match, and the device never stores more than twice its pages. Past 256
// operations the input is ignored, so that every run stays short.
func FuzzSSDPages(f *testing.F) {
	// Not a multiple of the grain, so the last block is shorter.
	const pageSize, slots, maxOps = 4<<10 + 512, 6, 256
	f.Fuzz(func(t *testing.T, data []byte) {
		data = data[:min(len(data), 3*maxOps)]
		clk := &simclock.Clock{}
		d := New(DefaultConfig(pageSize, 64), clk)
		model := map[int64][]byte{}
		var reads, writes int64
		got := make([]byte, pageSize)
		for ; len(data) >= 3; data = data[3:] {
			op, last := data[0], int(binary.LittleEndian.Uint16(data[1:]))%pageSize
			slot := int64(op>>2) % slots
			switch op & 3 {
			case 0, 1, 2:
				p := make([]byte, pageSize)
				if op&3 != 2 {
					for i := 0; i <= last; i++ {
						p[i] = byte(i*7 + int(op))
					}
					p[last] |= 1
				}
				d.WritePage(slot, p)
				model[slot] = p
				writes++
			case 3:
				got[0] ^= 0xff // the device must clear what it does not copy
				d.ReadPage(slot, got)
				want, ok := model[slot]
				if !ok {
					want = make([]byte, pageSize)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("slot %d reads different bytes from its last write", slot)
				}
				reads++
			}
			if d.Allocated() != int64(len(model)) {
				t.Fatalf("Allocated() = %d, %d slots written", d.Allocated(), len(model))
			}
			for s := int64(0); s < slots; s++ {
				if _, ok := model[s]; d.Written(s) != ok {
					t.Fatalf("Written(%d) = %v, want %v", s, d.Written(s), ok)
				}
			}
			if st := d.Stats(); st != (Stats{PagesRead: reads, PagesWritten: writes}) {
				t.Fatalf("Stats() = %+v after %d reads and %d writes", st, reads, writes)
			}
			if want := time.Duration(reads)*d.cfg.ReadLatency + time.Duration(writes)*d.cfg.WriteLatency; clk.Elapsed() != want {
				t.Fatalf("clock charged %v, want %v", clk.Elapsed(), want)
			}
			if bound := 2 * d.Allocated() * pageSize; d.StoredBytes() > bound {
				t.Fatalf("StoredBytes() = %d for %d pages, more than %d", d.StoredBytes(), d.Allocated(), bound)
			}
		}
	})
}

// benchSlots is how many slots BenchmarkWritePage and BenchmarkReadPage
// cycle over: one keeps the page in the CPU's caches, 2 048 (32 MB of
// 16 KB pages) spread it beyond them, as a device holding a data set does.
var benchSlots = []int64{1, 2048}

// benchPages are the two page shapes benchmarked: a 10-row leaf (10 192
// non-zero bytes, then zeros) and a page non-zero to its last byte.
var benchPages = []struct {
	name string
	used int
}{{"leaf", 10192}, {"full", 16 << 10}}

// BenchmarkWritePage writes each page shape over and over to a set of
// slots written once before the timer starts.
func BenchmarkWritePage(b *testing.B) {
	const pageSize = 16 << 10
	for _, pg := range benchPages {
		for _, slots := range benchSlots {
			b.Run(fmt.Sprintf("%s/slots=%d", pg.name, slots), func(b *testing.B) {
				d := New(DefaultConfig(pageSize, slots), &simclock.Clock{})
				p := leafPage(pageSize, pg.used)
				for s := int64(0); s < slots; s++ {
					d.WritePage(s, p)
				}
				b.SetBytes(pageSize)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					d.WritePage(int64(i)%slots, p)
				}
			})
		}
	}
}

// BenchmarkReadPage reads back what BenchmarkWritePage writes.
func BenchmarkReadPage(b *testing.B) {
	const pageSize = 16 << 10
	for _, pg := range benchPages {
		for _, slots := range benchSlots {
			b.Run(fmt.Sprintf("%s/slots=%d", pg.name, slots), func(b *testing.B) {
				d := New(DefaultConfig(pageSize, slots), &simclock.Clock{})
				p := leafPage(pageSize, pg.used)
				for s := int64(0); s < slots; s++ {
					d.WritePage(s, p)
				}
				b.SetBytes(pageSize)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					d.ReadPage(int64(i)%slots, p)
				}
			})
		}
	}
}

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
// full block when one outgrows it. A block no page uses — outgrown or
// trimmed — serves the next write it fits; a write that fits no free
// block while one is free takes a full block.
func TestStoredBytesFollowsPrefix(t *testing.T) {
	const pageSize = 16 << 10
	d := New(DefaultConfig(pageSize, 64), &simclock.Clock{})
	got := make([]byte, pageSize)
	check := func(what string, slot int64, p []byte, stored, pages int64) {
		t.Helper()
		if d.StoredBytes() != stored || d.Allocated() != pages {
			t.Fatalf("%s: StoredBytes() = %d, Allocated() = %d, want %d and %d", what, d.StoredBytes(), d.Allocated(), stored, pages)
		}
		d.ReadPage(slot, got)
		if !bytes.Equal(got, p) {
			t.Fatalf("%s: slot %d reads back different bytes", what, slot)
		}
	}
	step := func(what string, slot int64, p []byte, stored, pages int64) {
		t.Helper()
		d.WritePage(slot, p)
		check(what, slot, p, stored, pages)
	}
	trim := func(what string, slot int64, stored, pages int64) {
		t.Helper()
		d.Trim(slot)
		if d.Written(slot) {
			t.Fatalf("%s: slot %d still written", what, slot)
		}
		check(what, slot, make([]byte, pageSize), stored, pages)
	}
	step("a 10-row leaf", 0, leafPage(pageSize, 10192), 10<<10, 1)
	step("an all-zero page", 1, make([]byte, pageSize), 10<<10, 2)
	step("a shorter write keeps its block", 0, leafPage(pageSize, 100), 10<<10, 2)
	step("a longer write that fits", 0, leafPage(pageSize, 10<<10), 10<<10, 2)
	step("an outgrown page moves to a full block", 0, leafPage(pageSize, 10<<10+1), 26<<10, 2)
	step("and stays there", 0, leafPage(pageSize, 1), 26<<10, 2)
	step("a first write reuses the outgrown block", 2, leafPage(pageSize, 9<<10+1), 26<<10, 3)
	step("a zero page gets its first block", 1, leafPage(pageSize, 5), 27<<10, 3)
	trim("a trimmed slot reads zeros", 2, 27<<10, 2)
	trim("trimming it again changes nothing", 2, 27<<10, 2)
	trim("a never-written slot", 5, 27<<10, 2)
	step("the shortest free block that fits", 3, leafPage(pageSize, 3<<10), 27<<10, 3)
	trim("a full block's slot", 0, 27<<10, 2)
	step("a free full block serves a longer prefix", 4, leafPage(pageSize, 11<<10), 27<<10, 3)
	trim("a short block's slot", 1, 27<<10, 2)
	step("too long for every free block", 5, leafPage(pageSize, 2<<10), 43<<10, 3)
	if st := d.Stats(); st.PagesWritten != 11 || st.PagesRead != 16 {
		t.Fatalf("Stats() = %+v: a trim moved a traffic counter", st)
	}
}

// FuzzSSDPages drives a small device with writes, trims and reads decoded
// from the fuzz input, three bytes an operation: op, then a little-endian
// uint16 that sets a written page's last non-zero byte. op&7 is 0 to 3 for
// a write of a page with a non-zero prefix, 4 for an all-zero page, 5 for
// a trim and 6 or 7 for a read; op>>3 picks one of a few slots, so slots
// are rewritten, shrink, outgrow their blocks and take blocks other slots
// gave up. Against a map of the last write per slot, which a trim deletes,
// every read returns the slot's page or zeros, Allocated, Written, Stats
// and the clock match, and the device never stores more than twice the
// most pages it has held at once. Past 256 operations the input is
// ignored, so that every run stays short.
func FuzzSSDPages(f *testing.F) {
	// Not a multiple of the grain, so the last block is shorter.
	const pageSize, slots, maxOps = 4<<10 + 512, 6, 256
	f.Fuzz(func(t *testing.T, data []byte) {
		data = data[:min(len(data), 3*maxOps)]
		clk := &simclock.Clock{}
		d := New(DefaultConfig(pageSize, 64), clk)
		model := map[int64][]byte{}
		var reads, writes, most int64
		got := make([]byte, pageSize)
		for ; len(data) >= 3; data = data[3:] {
			op, last := data[0], int(binary.LittleEndian.Uint16(data[1:]))%pageSize
			slot := int64(op>>3) % slots
			switch op & 7 {
			case 0, 1, 2, 3, 4:
				p := make([]byte, pageSize)
				if op&7 != 4 {
					for i := 0; i <= last; i++ {
						p[i] = byte(i*7 + int(op))
					}
					p[last] |= 1
				}
				d.WritePage(slot, p)
				model[slot] = p
				writes++
			case 5:
				d.Trim(slot)
				delete(model, slot)
			default:
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
				t.Fatalf("Allocated() = %d, %d slots hold a page", d.Allocated(), len(model))
			}
			most = max(most, d.Allocated())
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
			if bound := 2 * most * pageSize; d.StoredBytes() > bound {
				t.Fatalf("StoredBytes() = %d with at most %d pages held, more than %d", d.StoredBytes(), most, bound)
			}
		}
		// Every slot, read once more: a trim or a write to one slot never
		// changed another's bytes.
		for s := int64(0); s < slots; s++ {
			d.ReadPage(s, got)
			want, ok := model[s]
			if !ok {
				want = make([]byte, pageSize)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("slot %d ends holding different bytes from its last write", s)
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

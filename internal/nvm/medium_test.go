package nvm

import (
	"bytes"
	"runtime"
	"slices"
	"testing"

	"nvmstore/internal/simclock"
)

// FuzzNVMMedium runs a program of strict-persistence WriteAt, ReadAt,
// Flush, Crash and Release calls against two byte arrays: what reads must
// return and what a crash must leave. Each op is 4 bytes: the op code, a
// host page, a signed shift from that page's start (±4.7 KB, so ranges
// straddle host-page boundaries) and a length of up to 13.5 KB. Writes
// are all zeros, all non-zero, or a non-zero head with a zero tail and
// the reverse, over ranges written before and ranges never written. A
// release zeroes the whole host pages inside its range, in both arrays,
// unless the range holds a line written since its last flush, which it
// must refuse. After every op the whole medium must equal the model — a
// zero page WriteAt leaves alone reads as zeros all the same — and Stats
// and TotalWrites must count exactly the requests made: a release counts
// nothing and charges no time.
func FuzzNVMMedium(f *testing.F) {
	const pages, maxOps = 8, 256
	const size = pages * HostPage
	f.Fuzz(func(t *testing.T, prog []byte) {
		prog = prog[:min(len(prog), 4*maxOps)]
		cfg := testConfig(size)
		cfg.StrictPersistence = true
		d := New(cfg, &simclock.Clock{})
		cur := make([]byte, size)              // what reads must return
		durable := make([]byte, size)          // what a crash must leave
		pending := make([]bool, size/LineSize) // written since its last flush
		var want Stats
		var wear int64
		buf := make([]byte, size)
		for ; len(prog) >= 4; prog = prog[4:] {
			op := prog[0]
			off := int(prog[1])%pages*HostPage + int(int8(prog[2]))*37
			off = min(max(off, 0), size-1)
			n := min(1+int(prog[3])*53, size-off)
			first, count := lineRange(int64(off), n)
			switch op % 8 {
			case 0, 1, 2:
				p := buf[:n]
				cut := n / 3
				for i := range p {
					nonzero := true
					switch (op >> 3) % 4 {
					case 0:
						nonzero = false
					case 2:
						nonzero = i < cut // a leaf: rows, then a zero tail
					case 3:
						nonzero = i >= cut
					}
					p[i] = 0
					if nonzero {
						p[i] = byte(i*7+int(op)) | 1
					}
				}
				d.WriteAt(p, int64(off))
				copy(cur[off:], p)
				want.LinesWritten += count
				for l := first; l < first+count; l++ {
					pending[l] = true
				}
			case 3, 4:
				got := buf[:n]
				d.ReadAt(got, int64(off))
				if !bytes.Equal(got, cur[off:off+n]) {
					t.Fatalf("ReadAt(%d, %d) differs from the last writes", off, n)
				}
				want.ReadOps++
				want.ReadOpsCharged++
				want.LinesRead += count
				want.LinesReadCharged += count
			case 5, 6:
				d.Flush(int64(off), n)
				lo, hi := first*LineSize, (first+count)*LineSize
				copy(durable[lo:hi], cur[lo:hi])
				clear(pending[first : first+count])
				want.FlushOps++
				want.LinesFlushed += count
				wear += count
			case 7:
				if (op>>3)%2 == 0 {
					d.Crash()
					copy(cur, durable)
					clear(pending)
					break
				}
				clk, worn := d.clk.Ns(), d.WearCounts()
				err := d.Release(int64(off), n)
				if slices.Contains(pending[first:first+count], true) != (err != nil) {
					t.Fatalf("Release(%d, %d) with unflushed lines %v: err %v", off, n, pending[first:first+count], err)
				}
				if err == nil {
					lo := (off + HostPage - 1) / HostPage * HostPage
					hi := max(lo, (off+n)/HostPage*HostPage)
					clear(cur[lo:hi])
					clear(durable[lo:hi])
				}
				if d.clk.Ns() != clk || !slices.Equal(d.WearCounts(), worn) {
					t.Fatalf("Release(%d, %d) charged %d ns or moved a wear counter", off, n, d.clk.Ns()-clk)
				}
			}
			if !bytes.Equal(d.View(0, size), cur) {
				for l := int64(0); l < size/LineSize; l++ {
					lo, hi := l*LineSize, (l+1)*LineSize
					if !bytes.Equal(d.View(lo, LineSize), cur[lo:hi]) {
						t.Fatalf("after op %d at [%d, %d): line %d of the medium differs from the model", op%8, off, off+n, l)
					}
				}
			}
			if d.Stats() != want || d.TotalWrites() != wear {
				t.Fatalf("after op %d: Stats %+v and %d writes, want %+v and %d", op%8, d.Stats(), d.TotalWrites(), want, wear)
			}
		}
	})
}

// The page shapes BenchmarkWriteAtPage writes: a 10-row leaf of 1000-B
// rows at the paper's 0.66 fill (10 192 non-zero bytes, then a 6 KB zero
// tail) and a page non-zero to its last byte.
var benchPageShapes = []struct {
	name string
	used int
}{{"leaf", 10192}, {"full", 16 << 10}}

// benchSlots is how many 16 KB slots the page benchmarks cycle over:
// 16 MB, beyond the CPU's caches, as a device holding a data set is.
const benchSlots = 1024

// benchPage returns a 16 KB page whose first used bytes are non-zero.
func benchPage(used int) []byte {
	p := make([]byte, 16<<10)
	for i := range used {
		p[i] = byte(i*7) | 1
	}
	return p
}

// BenchmarkWriteAtPage writes each page shape to a slot never written
// before (fresh: a new device replaces a used-up one with the timer
// stopped) and to a slot that already holds the same page (written), on
// the default device with its CPU cache.
func BenchmarkWriteAtPage(b *testing.B) {
	const pageSize = 16 << 10
	for _, pg := range benchPageShapes {
		p := benchPage(pg.used)
		b.Run(pg.name+"/fresh", func(b *testing.B) {
			d := New(DefaultConfig(benchSlots*pageSize), &simclock.Clock{})
			b.SetBytes(pageSize)
			for i := 0; i < b.N; i++ {
				if i > 0 && i%benchSlots == 0 {
					b.StopTimer()
					d = nil
					runtime.GC() // unmap the used device's medium
					d = New(DefaultConfig(benchSlots*pageSize), &simclock.Clock{})
					b.StartTimer()
				}
				d.WriteAt(p, int64(i%benchSlots)*pageSize)
			}
		})
		b.Run(pg.name+"/written", func(b *testing.B) {
			d := New(DefaultConfig(benchSlots*pageSize), &simclock.Clock{})
			for s := range benchSlots {
				d.WriteAt(p, int64(s)*pageSize)
			}
			b.SetBytes(pageSize)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.WriteAt(p, int64(i%benchSlots)*pageSize)
			}
		})
	}
}

// BenchmarkReadAtPage reads whole written 16 KB slots, one sequential
// ReadAt each, on the default device with its CPU cache.
func BenchmarkReadAtPage(b *testing.B) {
	const pageSize = 16 << 10
	d := New(DefaultConfig(benchSlots*pageSize), &simclock.Clock{})
	p := benchPage(pageSize)
	for s := range benchSlots {
		d.WriteAt(p, int64(s)*pageSize)
	}
	b.SetBytes(pageSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.ReadAt(p, int64(i%benchSlots)*pageSize)
	}
}

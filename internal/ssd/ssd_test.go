package ssd

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"nvmstore/internal/offheap"
	"nvmstore/internal/simclock"
)

func testDevice(capacity int64) (*Device, *simclock.Clock) {
	clk := &simclock.Clock{}
	cfg := Config{
		PageSize:     256,
		Capacity:     capacity,
		ReadLatency:  100 * time.Microsecond,
		WriteLatency: 200 * time.Microsecond,
	}
	return New(cfg, clk), clk
}

// collect runs garbage collections until offheap.Mapped reads want, at
// most ten.
func collect(t *testing.T, want int64) {
	t.Helper()
	for i := 0; i < 10 && offheap.Mapped() != want; i++ {
		runtime.GC()
	}
	if got := offheap.Mapped(); got != want {
		t.Fatalf("offheap.Mapped() = %d after 10 collections, want %d", got, want)
	}
}

// TestScatteredWritesMapOnlyWhatTheyWrite writes 1 000 scattered slots of
// a device with README's quickstart geometry (16 GB of 16 KB pages): the
// device maps the written pages, packed into shared chunks, and not its
// capacity.
func TestScatteredWritesMapOnlyWhatTheyWrite(t *testing.T) {
	const pageSize, writes = 16 << 10, 1000
	collect(t, 0) // no device of an earlier test is reachable
	d := New(DefaultConfig(pageSize, (16<<30)/pageSize), &simclock.Clock{})
	slot := func(i int64) int64 { return i*1047 + i*i%13 }
	page := make([]byte, pageSize)
	for i := int64(0); i < writes; i++ {
		page[0] = byte(i)
		d.WritePage(slot(i), page)
	}
	chunks := (writes*pageSize + offheap.ChunkSize - 1) / offheap.ChunkSize
	if got := offheap.Mapped(); got > int64(chunks)*offheap.ChunkSize {
		t.Fatalf("%d written pages mapped %d bytes, want at most %d chunks of %d", writes, got, chunks, offheap.ChunkSize)
	}
	if d.Allocated() != writes {
		t.Fatalf("Allocated() = %d, want %d", d.Allocated(), writes)
	}
	last := int64(writes - 1)
	d.ReadPage(slot(last), page)
	if page[0] != byte(last) {
		t.Fatalf("slot of the last write reads %d", page[0])
	}
}

func TestRoundTrip(t *testing.T) {
	d, _ := testDevice(8)
	page := make([]byte, 256)
	copy(page, "page three content")
	d.WritePage(3, page)

	got := make([]byte, 256)
	d.ReadPage(3, got)
	if !bytes.Equal(got, page) {
		t.Fatal("read back different content")
	}
}

func TestUnwrittenSlotReadsZeroes(t *testing.T) {
	d, _ := testDevice(8)
	got := make([]byte, 256)
	got[0] = 0xFF // ensure the device actually clears the buffer
	d.ReadPage(7, got)
	if !bytes.Equal(got, make([]byte, 256)) {
		t.Fatal("unwritten slot returned non-zero data")
	}
	if d.Written(7) {
		t.Fatal("Written(7) true for a slot that was only read")
	}
}

func TestLatencyCharged(t *testing.T) {
	d, clk := testDevice(8)
	page := make([]byte, 256)
	d.WritePage(0, page)
	if got, want := clk.Elapsed(), 200*time.Microsecond; got != want {
		t.Fatalf("write charged %v, want %v", got, want)
	}
	d.ReadPage(0, page)
	if got, want := clk.Elapsed(), 300*time.Microsecond; got != want {
		t.Fatalf("after read total %v, want %v", got, want)
	}
}

func TestStats(t *testing.T) {
	d, _ := testDevice(8)
	page := make([]byte, 256)
	d.WritePage(0, page)
	d.WritePage(1, page)
	d.ReadPage(0, page)
	st := d.Stats()
	if st.PagesWritten != 2 || st.PagesRead != 1 {
		t.Fatalf("stats = %+v, want 2 writes / 1 read", st)
	}
	if got := d.Allocated(); got != 2 {
		t.Fatalf("Allocated() = %d, want 2", got)
	}
	d.ResetStats()
	if st := d.Stats(); st.PagesRead != 0 || st.PagesWritten != 0 {
		t.Fatalf("stats after reset = %+v", st)
	}
}

func TestOverwrite(t *testing.T) {
	d, _ := testDevice(4)
	p1 := bytes.Repeat([]byte{1}, 256)
	p2 := bytes.Repeat([]byte{2}, 256)
	d.WritePage(2, p1)
	d.WritePage(2, p2)
	got := make([]byte, 256)
	d.ReadPage(2, got)
	if !bytes.Equal(got, p2) {
		t.Fatal("overwrite not visible")
	}
	if d.Allocated() != 1 {
		t.Fatalf("Allocated() = %d after overwrite, want 1", d.Allocated())
	}
}

func TestWriteDoesNotAliasCaller(t *testing.T) {
	d, _ := testDevice(4)
	p := make([]byte, 256)
	p[0] = 1
	d.WritePage(0, p)
	p[0] = 99 // mutate caller's buffer after the write
	got := make([]byte, 256)
	d.ReadPage(0, got)
	if got[0] != 1 {
		t.Fatal("device aliased the caller's write buffer")
	}
}

func TestPanics(t *testing.T) {
	d, _ := testDevice(4)
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"slot past capacity", func() { d.ReadPage(4, make([]byte, 256)) }},
		{"negative slot", func() { d.ReadPage(-1, make([]byte, 256)) }},
		{"short read buffer", func() { d.ReadPage(0, make([]byte, 100)) }},
		{"long write buffer", func() { d.WritePage(0, make([]byte, 300)) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic")
				}
			}()
			tc.fn()
		})
	}
}

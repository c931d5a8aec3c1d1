package wire

import (
	"bytes"
	"io"
	"testing"
)

// TestBufPoolRoundTripAllocatesNothing pins the holder recycling: once
// the pools are warm, taking a buffer and giving it back costs no
// allocation (boxing the slice header on every Put used to cost one,
// four times per GET).
func TestBufPoolRoundTripAllocatesNothing(t *testing.T) {
	PutBuf(make([]byte, 0, 256))
	if n := testing.AllocsPerRun(1000, func() {
		buf := GetBuf()
		if cap(buf) == 0 {
			// A collection emptied the pools mid-run; refill rather
			// than measure the refill forever after.
			buf = make([]byte, 0, 256)
		}
		PutBuf(append(buf, 1, 2, 3))
	}); n != 0 {
		t.Fatalf("GetBuf -> PutBuf round trip: %v allocs, want 0", n)
	}
}

// TestReadFrameWarmBufferAllocatesNothing pins that a reader passing its
// buffer back pays no allocation per frame: the length prefix lands in
// the caller's buffer, not in an escaping local.
func TestReadFrameWarmBufferAllocatesNothing(t *testing.T) {
	frame := AppendResponse(nil, Response{Code: RespValue, ID: 7, Value: bytes.Repeat([]byte("v"), 1000)})
	rd := bytes.NewReader(frame)
	var r io.Reader = rd
	_, buf, err := ReadFrame(r, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(1000, func() {
		rd.Reset(frame)
		var payload []byte
		payload, buf, err = ReadFrame(r, buf)
		if err != nil || len(payload) != len(frame)-4 {
			t.Fatalf("ReadFrame: %d bytes, %v", len(payload), err)
		}
	}); n != 0 {
		t.Fatalf("ReadFrame into a warm buffer: %v allocs, want 0", n)
	}
}

// sameArray reports whether a and b share their backing array's start.
func sameArray(a, b []byte) bool {
	return cap(a) > 0 && cap(b) > 0 && &a[:1][0] == &b[:1][0]
}

// drainPool empties the buffer pool as seen from this P and reports
// whether one of the buffers it held was b.
func drainPool(b []byte) (held bool) {
	for got := GetBuf(); cap(got) > 0; got = GetBuf() {
		held = held || sameArray(got, b)
	}
	return held
}

// TestTooSmallBufferIsDropped pins what bufPool's comment promises: a
// pooled buffer that GetBufN, or a growing ReadFrame, found too small is
// left to the garbage collector. Put back, it would be the very buffer the
// next GetBuf on this P is handed, which allocates again and grows the
// pool by one buffer per miss.
func TestTooSmallBufferIsDropped(t *testing.T) {
	drainPool(nil)
	small := make([]byte, 0, 8)
	PutBuf(small)
	if b := GetBufN(64); len(b) != 64 || sameArray(b, small) {
		t.Fatalf("GetBufN(64): %d bytes, in the 8-byte buffer: %v", len(b), sameArray(b, small))
	}
	if drainPool(small) {
		t.Fatal("GetBufN put the buffer it found too small back in the pool")
	}

	frame := AppendResponse(nil, Response{Code: RespValue, ID: 7, Value: bytes.Repeat([]byte("v"), 100)})
	payload, grown, err := ReadFrame(bytes.NewReader(frame), small)
	if err != nil || len(payload) != len(frame)-4 || sameArray(grown, small) {
		t.Fatalf("ReadFrame into an 8-byte buffer: %d bytes, %v", len(payload), err)
	}
	if drainPool(small) {
		t.Fatal("ReadFrame put the buffer the frame outgrew in the pool")
	}
}

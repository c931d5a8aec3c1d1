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

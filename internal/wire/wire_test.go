package wire

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"math/rand"
	"strings"
	"testing"
)

// roundTripRequest encodes r and decodes the framed payload back.
func roundTripRequest(t *testing.T, r Request) Request {
	t.Helper()
	frame := AppendRequest(nil, r)
	payload, _, err := ReadFrame(bytes.NewReader(frame), nil)
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	got, err := DecodeRequest(payload)
	if err != nil {
		t.Fatalf("DecodeRequest: %v", err)
	}
	return got
}

func TestRequestRoundTrip(t *testing.T) {
	cases := []Request{
		{Op: OpGet, ID: 1, Table: 1, Key: 42},
		{Op: OpDelete, ID: 0xFFFFFFFF, Table: 7, Key: 0},
		{Op: OpPut, ID: 2, Table: 1, Key: 9, Value: []byte("hello")},
		{Op: OpPut, ID: 3, Table: 1, Key: 9, Value: []byte{}},
		{Op: OpScan, ID: 4, Table: 2, Key: 100, Limit: 50},
		{Op: OpBegin, ID: 5},
		{Op: OpCommit, ID: 6},
		{Op: OpRollback, ID: 7},
		{Op: OpStats, ID: 8},
	}
	for _, want := range cases {
		got := roundTripRequest(t, want)
		if got.Op != want.Op || got.ID != want.ID || got.Table != want.Table ||
			got.Key != want.Key || got.Limit != want.Limit || !bytes.Equal(got.Value, want.Value) {
			t.Errorf("%s: round trip %+v != %+v", OpName(want.Op), got, want)
		}
	}
}

func TestResponseRoundTrip(t *testing.T) {
	cases := []Response{
		{Code: RespOK, ID: 1},
		{Code: RespNotFound, ID: 2},
		{Code: RespValue, ID: 3, Value: []byte("row bytes")},
		{Code: RespErr, ID: 4, Err: "unknown table 9"},
		{Code: RespStats, ID: 5, Value: []byte(`{"shards":4}`)},
		{Code: RespScan, ID: 6, Entries: []Entry{
			{Key: 1, Value: []byte("a")},
			{Key: 2, Value: []byte{}},
			{Key: 3, Value: []byte("ccc")},
		}},
		{Code: RespScan, ID: 7, Entries: nil},
	}
	for _, want := range cases {
		frame := AppendResponse(nil, want)
		payload, _, err := ReadFrame(bytes.NewReader(frame), nil)
		if err != nil {
			t.Fatalf("%s: ReadFrame: %v", OpName(want.Code), err)
		}
		got, err := DecodeResponse(payload)
		if err != nil {
			t.Fatalf("%s: DecodeResponse: %v", OpName(want.Code), err)
		}
		if got.Code != want.Code || got.ID != want.ID || got.Err != want.Err ||
			!bytes.Equal(got.Value, want.Value) || len(got.Entries) != len(want.Entries) {
			t.Errorf("%s: round trip %+v != %+v", OpName(want.Code), got, want)
		}
		for i := range got.Entries {
			if got.Entries[i].Key != want.Entries[i].Key ||
				!bytes.Equal(got.Entries[i].Value, want.Entries[i].Value) {
				t.Errorf("%s: entry %d: %+v != %+v", OpName(want.Code), i, got.Entries[i], want.Entries[i])
			}
		}
	}
}

// TestDecodedValuesAreCapped: a decoded response's values alias one buffer
// that a client may hand to its caller, entry after entry, so each is
// capped at its own length — an append reallocates it and never reaches
// what follows it in the frame.
func TestDecodedValuesAreCapped(t *testing.T) {
	frame := AppendResponse(nil, Response{Code: RespScan, ID: 1, Entries: []Entry{
		{Key: 10, Value: []byte("first")},
		{Key: 11, Value: []byte("second")},
	}})
	resp, err := DecodeResponse(frame[4:])
	if err != nil {
		t.Fatal(err)
	}
	before := append([]byte(nil), frame...)
	grown := append(resp.Entries[0].Value, bytes.Repeat([]byte{0xEE}, 32)...)
	if !bytes.Equal(frame, before) {
		t.Fatal("append to entries[0].Value wrote into the frame past it")
	}
	if resp.Entries[1].Key != 11 || string(resp.Entries[1].Value) != "second" || !bytes.HasPrefix(grown, []byte("first")) {
		t.Fatalf("entries[1] = %+v after an append to entries[0].Value", resp.Entries[1])
	}

	// A value followed by another frame in the same buffer.
	two := AppendResponse(AppendResponse(nil, Response{Code: RespValue, ID: 2, Value: []byte("row")}), Response{Code: RespOK, ID: 3})
	before = append(before[:0], two...)
	val, err := DecodeResponse(two[4 : 4+headerSize+3])
	if err != nil {
		t.Fatal(err)
	}
	_ = append(val.Value, 0xEE)
	if !bytes.Equal(two, before) {
		t.Fatal("append to a decoded RespValue wrote past the frame")
	}
}

// buildScanFrame encodes entries with the in-place builder, the way the
// server does: room for limit rows up front, head patched at the end.
func buildScanFrame(id uint32, entries []Entry, limit, valueLen int) []byte {
	frame := BeginScanFrame(make([]byte, ScanFrameSize(limit, valueLen)), id)
	for _, e := range entries {
		frame = AppendScanEntry(frame, e.Key, e.Value)
	}
	FinishScanFrame(frame, len(entries))
	return frame
}

// TestScanFrameBuilderMatchesAppendResponse: the builder and
// AppendResponse are two ways to write one format. For random entry lists
// — none, one, the server's default MaxScan, empty values — the frames are
// equal byte for byte, fit the size announced, and read back as the
// entries put in.
func TestScanFrameBuilderMatchesAppendResponse(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	const maxScan = 1024 // the server's default Options.MaxScan
	for _, c := range []struct{ rows, valueLen int }{
		{0, 64}, {1, 64}, {1, 0}, {7, 1 + rng.Intn(200)}, {50, 1000}, {maxScan, 0}, {maxScan, 1 + rng.Intn(200)},
	} {
		rows, valueLen := c.rows, c.valueLen
		entries := make([]Entry, rows)
		for i := range entries {
			val := make([]byte, valueLen)
			rng.Read(val)
			entries[i] = Entry{Key: rng.Uint64(), Value: val}
		}
		id := rng.Uint32()
		want := AppendResponse(nil, Response{Code: RespScan, ID: id, Entries: entries})
		// Room for more rows than the scan found, as on the server.
		got := buildScanFrame(id, entries, rows+rng.Intn(3), valueLen)
		if !bytes.Equal(got, want) {
			t.Fatalf("%d rows of %d bytes: built frame differs from AppendResponse's", rows, valueLen)
		}
		if len(got) != ScanFrameSize(rows, valueLen) {
			t.Fatalf("%d rows of %d bytes: frame is %d bytes, ScanFrameSize says %d", rows, valueLen, len(got), ScanFrameSize(rows, valueLen))
		}
		payload, _, err := ReadFrame(bytes.NewReader(got), nil)
		if err != nil {
			t.Fatalf("%d rows: ReadFrame: %v", rows, err)
		}
		resp, err := DecodeResponse(payload)
		if err != nil {
			t.Fatalf("%d rows: DecodeResponse: %v", rows, err)
		}
		if resp.Code != RespScan || resp.ID != id || len(resp.Entries) != rows {
			t.Fatalf("%d rows: decoded %s id %d with %d entries", rows, OpName(resp.Code), resp.ID, len(resp.Entries))
		}
		for i, e := range resp.Entries {
			if e.Key != entries[i].Key || !bytes.Equal(e.Value, entries[i].Value) {
				t.Fatalf("%d rows: entry %d changed in the round trip", rows, i)
			}
		}
	}
}

func TestReadFrameErrors(t *testing.T) {
	// Clean close before a frame: plain EOF.
	if _, _, err := ReadFrame(bytes.NewReader(nil), nil); err != io.EOF {
		t.Errorf("empty stream: got %v, want io.EOF", err)
	}
	// Close mid-prefix and mid-payload: unexpected EOF.
	full := AppendRequest(nil, Request{Op: OpGet, ID: 1, Table: 1, Key: 2})
	for _, cut := range []int{1, 3, 5, len(full) - 1} {
		if _, _, err := ReadFrame(bytes.NewReader(full[:cut]), nil); err != io.ErrUnexpectedEOF {
			t.Errorf("cut at %d: got %v, want io.ErrUnexpectedEOF", cut, err)
		}
	}
	// Oversized length prefix.
	huge := []byte{0xFF, 0xFF, 0xFF, 0xFF}
	if _, _, err := ReadFrame(bytes.NewReader(huge), nil); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("huge frame: got %v, want ErrFrameTooLarge", err)
	}
	// Payload shorter than the fixed header.
	short := []byte{0, 0, 0, 2, Version, OpGet}
	if _, _, err := ReadFrame(bytes.NewReader(short), nil); !errors.Is(err, ErrShortFrame) {
		t.Errorf("short frame: got %v, want ErrShortFrame", err)
	}
}

func TestReadFrameReusesBuffer(t *testing.T) {
	var stream []byte
	stream = AppendRequest(stream, Request{Op: OpPut, ID: 1, Table: 1, Key: 1, Value: bytes.Repeat([]byte("x"), 100)})
	stream = AppendRequest(stream, Request{Op: OpGet, ID: 2, Table: 1, Key: 2})
	r := bytes.NewReader(stream)
	payload, buf, err := ReadFrame(r, nil)
	if err != nil {
		t.Fatal(err)
	}
	first := cap(buf)
	if _, err := DecodeRequest(payload); err != nil {
		t.Fatal(err)
	}
	_, buf, err = ReadFrame(r, buf)
	if err != nil {
		t.Fatal(err)
	}
	if cap(buf) != first {
		t.Errorf("buffer reallocated for a smaller frame: cap %d -> %d", first, cap(buf))
	}
}

// TestFrameBuffered pins the "is a whole frame already in the buffer"
// check at every cut of a two-frame stream: it is true exactly when the
// next frame's prefix and payload are all buffered, it never reads, and
// whenever it is true ReadFrame is served without a read either.
func TestFrameBuffered(t *testing.T) {
	one := AppendRequest(nil, Request{Op: OpPut, ID: 1, Table: 1, Key: 2, Value: []byte("value")})
	stream := append(append([]byte(nil), one...), one...)
	for cut := 0; cut <= len(stream); cut++ {
		src := &countingReader{r: bytes.NewReader(stream[:cut])}
		br := bufio.NewReaderSize(src, 4*len(stream))
		br.Peek(1) // one read takes in everything the stream holds
		reads := src.reads
		var buf []byte
		for frames := 0; ; frames++ {
			want := cut-frames*len(one) >= len(one) // empty, partial prefix, partial payload: false
			if got := FrameBuffered(br); got != want {
				t.Fatalf("cut %d after %d frames: FrameBuffered = %v, want %v", cut, frames, got, want)
			}
			if !want {
				break
			}
			var err error
			if _, buf, err = ReadFrame(br, buf); err != nil {
				t.Fatalf("cut %d: buffered frame %d: %v", cut, frames, err)
			}
		}
		if src.reads != reads {
			t.Fatalf("cut %d: %d reads of the source behind a buffered burst", cut, src.reads-reads)
		}
	}
	// A frame longer than the buffer can hold is never "buffered"; ReadFrame
	// reads it through.
	big := AppendRequest(nil, Request{Op: OpPut, ID: 1, Table: 1, Key: 2, Value: make([]byte, 100)})
	br := bufio.NewReaderSize(bytes.NewReader(big), 16)
	br.Peek(16)
	if FrameBuffered(br) {
		t.Fatal("a frame larger than the buffer reported whole")
	}
	if payload, _, err := ReadFrame(br, nil); err != nil || len(payload) != len(big)-4 {
		t.Fatalf("oversized frame: %d bytes, %v", len(payload), err)
	}
}

// countingReader counts the reads that reach the source of a bufio.Reader.
type countingReader struct {
	r     io.Reader
	reads int
}

func (c *countingReader) Read(p []byte) (int, error) {
	c.reads++
	return c.r.Read(p)
}

func TestDecodeRequestErrors(t *testing.T) {
	cases := []struct {
		name    string
		payload []byte
		want    error
	}{
		{"empty", nil, ErrShortFrame},
		{"truncated header", []byte{Version, OpGet, 0}, ErrShortFrame},
		{"bad version", []byte{99, OpGet, 0, 0, 0, 1}, ErrBadVersion},
		{"bad opcode", []byte{Version, 0x7F, 0, 0, 0, 1}, ErrBadOpcode},
		{"get short body", []byte{Version, OpGet, 0, 0, 0, 1, 1, 2, 3}, ErrShortFrame},
		{"put short body", []byte{Version, OpPut, 0, 0, 0, 1, 1, 2, 3}, ErrShortFrame},
		{"scan short body", append([]byte{Version, OpScan, 0, 0, 0, 1}, make([]byte, 16)...), ErrShortFrame},
		{"begin with body", []byte{Version, OpBegin, 0, 0, 0, 1, 9}, ErrShortFrame},
	}
	for _, tc := range cases {
		if _, err := DecodeRequest(tc.payload); !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
}

func TestDecodeResponseErrors(t *testing.T) {
	// A hostile scan count must not drive allocation: count says 2^32-1
	// entries, body holds none.
	evil := []byte{Version, RespScan, 0, 0, 0, 1, 0xFF, 0xFF, 0xFF, 0xFF}
	if _, err := DecodeResponse(evil); !errors.Is(err, ErrShortFrame) {
		t.Errorf("hostile scan count: got %v, want ErrShortFrame", err)
	}
	// Entry value length past the body end.
	bad := AppendResponse(nil, Response{Code: RespScan, ID: 1, Entries: []Entry{{Key: 1, Value: []byte("abc")}}})
	payload := bad[4:]
	payload[len(payload)-4-3] = 0xFF // corrupt the entry's value length
	if _, err := DecodeResponse(payload); !errors.Is(err, ErrShortFrame) {
		t.Errorf("bad entry length: got %v, want ErrShortFrame", err)
	}
	// Trailing garbage after the declared entries.
	trailing := append(AppendResponse(nil, Response{Code: RespScan, ID: 1})[4:], 1, 2, 3)
	if _, err := DecodeResponse(trailing); !errors.Is(err, ErrShortFrame) {
		t.Errorf("trailing bytes: got %v, want ErrShortFrame", err)
	}
	if _, err := DecodeResponse([]byte{Version, 0x01, 0, 0, 0, 1}); !errors.Is(err, ErrBadOpcode) {
		t.Errorf("request opcode in response position: want ErrBadOpcode, got nil")
	}
}

func TestOpNameCoversAll(t *testing.T) {
	for op := OpGet; op <= OpStats; op++ {
		if strings.HasPrefix(OpName(op), "op0x") {
			t.Errorf("opcode %#x has no name", op)
		}
	}
	for code := RespOK; code <= RespStats; code++ {
		if strings.HasPrefix(OpName(code), "op0x") {
			t.Errorf("response code %#x has no name", code)
		}
	}
	if OpName(0x55) == "" {
		t.Error("unknown opcode must still render")
	}
}

// FuzzDecodeRequest checks that no request payload can panic the
// decoder, and that whatever decodes also re-encodes to an equivalent
// frame (the decoder and encoder agree on the format).
func FuzzDecodeRequest(f *testing.F) {
	for _, r := range []Request{
		{Op: OpGet, ID: 1, Table: 1, Key: 42},
		{Op: OpPut, ID: 2, Table: 1, Key: 9, Value: []byte("hello")},
		{Op: OpScan, ID: 4, Table: 2, Key: 100, Limit: 50},
		{Op: OpStats, ID: 8},
	} {
		f.Add(AppendRequest(nil, r)[4:]) // payload without the length prefix
	}
	f.Add(AppendRequest(nil, Request{Op: OpGet, ID: 9, Table: 1, Key: 2, Flags: FlagTraced, TraceID: 77})[4:])
	f.Add([]byte{Version, OpGet})
	f.Add([]byte{0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, payload []byte) {
		r, err := DecodeRequest(payload)
		if err != nil {
			return
		}
		again, err := DecodeRequest(AppendRequest(nil, r)[4:])
		if err != nil {
			t.Fatalf("re-decode of re-encoded request failed: %v", err)
		}
		if again.Op != r.Op || again.ID != r.ID || again.Table != r.Table ||
			again.Key != r.Key || again.Limit != r.Limit || !bytes.Equal(again.Value, r.Value) ||
			again.Flags != r.Flags || again.TraceID != r.TraceID {
			t.Fatalf("round trip changed request: %+v != %+v", again, r)
		}
	})
}

// FuzzDecodeResponse checks the response decoder never panics and
// re-encodes losslessly.
func FuzzDecodeResponse(f *testing.F) {
	for _, r := range []Response{
		{Code: RespOK, ID: 1},
		{Code: RespValue, ID: 3, Value: []byte("row")},
		{Code: RespErr, ID: 4, Err: "boom"},
		{Code: RespScan, ID: 6, Entries: []Entry{{Key: 1, Value: []byte("a")}}},
	} {
		f.Add(AppendResponse(nil, r)[4:])
	}
	f.Add([]byte{Version, RespScan, 0, 0, 0, 1, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add(buildScanFrame(8, []Entry{{Key: 1, Value: []byte("ab")}, {Key: 2, Value: []byte("cd")}}, 3, 2)[4:])
	f.Fuzz(func(t *testing.T, payload []byte) {
		r, err := DecodeResponse(payload)
		if err != nil {
			return
		}
		again, err := DecodeResponse(AppendResponse(nil, r)[4:])
		if err != nil {
			t.Fatalf("re-decode of re-encoded response failed: %v", err)
		}
		if again.Code != r.Code || again.ID != r.ID || again.Err != r.Err ||
			!bytes.Equal(again.Value, r.Value) || len(again.Entries) != len(r.Entries) ||
			again.Flags != r.Flags || again.TraceID != r.TraceID {
			t.Fatalf("round trip changed response: %+v != %+v", again, r)
		}
	})
}

// FuzzReadFrame feeds raw streams to the frame reader: it must never
// panic and never hand DecodeRequest a payload it rejects as too short
// to hold a header.
func FuzzReadFrame(f *testing.F) {
	f.Add(AppendRequest(nil, Request{Op: OpGet, ID: 1, Table: 1, Key: 2}))
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 1})
	two := AppendRequest(AppendRequest(nil, Request{Op: OpGet, ID: 1, Table: 1, Key: 2}), Request{Op: OpGet, ID: 2, Table: 1, Key: 3})
	f.Add(two[:len(two)-3]) // a whole frame, then a partial one
	f.Fuzz(func(t *testing.T, stream []byte) {
		// A small buffer, so that whole, partial and oversized frames occur.
		r := bufio.NewReaderSize(bytes.NewReader(stream), 64)
		var buf []byte
		var payload []byte
		var err error
		for {
			// Whatever the bytes, a frame reported whole is read from the
			// buffer alone: ReadFrame must not hit the end of the stream.
			whole, left := FrameBuffered(r), r.Buffered()
			payload, buf, err = ReadFrame(r, buf)
			if whole && (err == io.EOF || err == io.ErrUnexpectedEOF) {
				t.Fatalf("FrameBuffered with %d bytes buffered, but ReadFrame: %v", left, err)
			}
			if err != nil {
				return
			}
			if len(payload) < headerSize {
				t.Fatalf("ReadFrame returned %d-byte payload, below header size", len(payload))
			}
			// Either decode outcome is fine; it just must not panic.
			DecodeRequest(payload)
		}
	})
}

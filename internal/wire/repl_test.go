package wire

import (
	"bytes"
	"reflect"
	"testing"
)

// replSamples returns one representative value per replication body
// type, used by the round-trip tests and the fuzz seed corpus.
func replSamples() (ReplSubscribe, ReplAck, ReplPromote, ReplWait, ReplLSNs, ReplBatch, ReplSnap) {
	sub := ReplSubscribe{Epoch: 3, From: []uint64{10, 0, 7}}
	ack := ReplAck{Shard: 2, Epoch: 3, Applied: 99}
	pro := ReplPromote{Epoch: 4}
	wait := ReplWait{TimeoutMs: 250, LSNs: []uint64{5, 6}}
	lsns := ReplLSNs{Epoch: 3, Role: RoleReplica, LSNs: []uint64{11, 12}}
	batch := ReplBatch{Shard: 1, Epoch: 3, Recs: []ReplRec{
		{Kind: 1, LSN: 7, Tx: 2, PID: 1, Off: 1, After: []byte("\x01\x00\x00\x00\x00\x00\x00\x00row")},
		{Kind: 1, LSN: 8, Tx: 2, PID: 1, Off: 3 | 8<<2, After: []byte("b")},
		{Kind: 2, LSN: 9, Tx: 2},
	}}
	snap := ReplSnap{Shard: 0, Epoch: 3, Final: true, SnapLSN: 42, Rows: []SnapRow{
		{Table: 1, Key: 5, Value: []byte("hello")},
		{Table: 1, Key: 6, Value: nil},
	}}
	return sub, ack, pro, wait, lsns, batch, snap
}

func TestReplBodyRoundTrips(t *testing.T) {
	sub, ack, pro, wait, lsns, batch, snap := replSamples()

	if got, err := DecodeReplSubscribe(AppendReplSubscribe(nil, sub)); err != nil || !reflect.DeepEqual(got, sub) {
		t.Fatalf("subscribe round trip: %+v, %v", got, err)
	}
	if got, err := DecodeReplAck(AppendReplAck(nil, ack)); err != nil || got != ack {
		t.Fatalf("ack round trip: %+v, %v", got, err)
	}
	if got, err := DecodeReplPromote(AppendReplPromote(nil, pro)); err != nil || got != pro {
		t.Fatalf("promote round trip: %+v, %v", got, err)
	}
	if got, err := DecodeReplWait(AppendReplWait(nil, wait)); err != nil || !reflect.DeepEqual(got, wait) {
		t.Fatalf("wait round trip: %+v, %v", got, err)
	}
	if got, err := DecodeReplLSNs(AppendReplLSNs(nil, lsns)); err != nil || !reflect.DeepEqual(got, lsns) {
		t.Fatalf("lsns round trip: %+v, %v", got, err)
	}
	got, err := DecodeReplBatch(AppendReplBatch(nil, batch))
	if err != nil || len(got.Recs) != len(batch.Recs) || got.Shard != batch.Shard || got.Epoch != batch.Epoch {
		t.Fatalf("batch round trip: %+v, %v", got, err)
	}
	for i, r := range got.Recs {
		w := batch.Recs[i]
		if r.Kind != w.Kind || r.LSN != w.LSN || r.Tx != w.Tx || r.PID != w.PID || r.Off != w.Off ||
			!bytes.Equal(r.After, w.After) {
			t.Fatalf("batch rec %d: %+v != %+v", i, r, w)
		}
	}
	gs, err := DecodeReplSnap(AppendReplSnap(nil, snap))
	if err != nil || gs.Shard != snap.Shard || gs.Epoch != snap.Epoch || !gs.Final ||
		gs.SnapLSN != snap.SnapLSN || len(gs.Rows) != len(snap.Rows) {
		t.Fatalf("snapshot round trip: %+v, %v", gs, err)
	}
	for i, r := range gs.Rows {
		w := snap.Rows[i]
		if r.Table != w.Table || r.Key != w.Key || !bytes.Equal(r.Value, w.Value) {
			t.Fatalf("snapshot row %d: %+v != %+v", i, r, w)
		}
	}
}

// TestReplBodyTruncations checks that every strict prefix of each
// encoded body decodes to an error, never a panic or a silent success
// with a different meaning.
func TestReplBodyTruncations(t *testing.T) {
	sub, ack, pro, wait, lsns, batch, snap := replSamples()
	bodies := map[string]struct {
		enc []byte
		dec func([]byte) error
	}{
		"subscribe": {AppendReplSubscribe(nil, sub), func(b []byte) error { _, err := DecodeReplSubscribe(b); return err }},
		"ack":       {AppendReplAck(nil, ack), func(b []byte) error { _, err := DecodeReplAck(b); return err }},
		"promote":   {AppendReplPromote(nil, pro), func(b []byte) error { _, err := DecodeReplPromote(b); return err }},
		"wait":      {AppendReplWait(nil, wait), func(b []byte) error { _, err := DecodeReplWait(b); return err }},
		"lsns":      {AppendReplLSNs(nil, lsns), func(b []byte) error { _, err := DecodeReplLSNs(b); return err }},
		"batch":     {AppendReplBatch(nil, batch), func(b []byte) error { _, err := DecodeReplBatch(b); return err }},
		"snapshot":  {AppendReplSnap(nil, snap), func(b []byte) error { _, err := DecodeReplSnap(b); return err }},
	}
	for name, tc := range bodies {
		for cut := 0; cut < len(tc.enc); cut++ {
			if err := tc.dec(tc.enc[:cut]); err == nil {
				t.Errorf("%s: %d-byte prefix of %d decoded without error", name, cut, len(tc.enc))
			}
		}
	}
}

// TestReplFramesThroughRequestPath checks that replication bodies ride
// the generic request/response framing: encode → frame → decode returns
// the opaque body byte-identical, for every repl opcode and response
// code.
func TestReplFramesThroughRequestPath(t *testing.T) {
	sub, ack, pro, wait, lsns, batch, snap := replSamples()
	reqs := map[byte][]byte{
		OpReplSubscribe: AppendReplSubscribe(nil, sub),
		OpReplAck:       AppendReplAck(nil, ack),
		OpReplPromote:   AppendReplPromote(nil, pro),
		OpReplWait:      AppendReplWait(nil, wait),
	}
	for op, body := range reqs {
		frame := AppendRequest(nil, Request{Op: op, ID: 7, Value: body})
		got, err := DecodeRequest(frame[4:])
		if err != nil || got.Op != op || got.ID != 7 || !bytes.Equal(got.Value, body) {
			t.Fatalf("%s through request path: %+v, %v", OpName(op), got, err)
		}
	}
	frame := AppendRequest(nil, Request{Op: OpReplLSNs, ID: 9})
	if got, err := DecodeRequest(frame[4:]); err != nil || got.Op != OpReplLSNs || len(got.Value) != 0 {
		t.Fatalf("repllsns request: %+v, %v", got, err)
	}
	resps := map[byte][]byte{
		RespReplBatch: AppendReplBatch(nil, batch),
		RespReplSnap:  AppendReplSnap(nil, snap),
		RespReplLSNs:  AppendReplLSNs(nil, lsns),
	}
	for code, body := range resps {
		frame := AppendResponse(nil, Response{Code: code, ID: 8, Value: body})
		got, err := DecodeResponse(frame[4:])
		if err != nil || got.Code != code || got.ID != 8 || !bytes.Equal(got.Value, body) {
			t.Fatalf("%s through response path: %+v, %v", OpName(code), got, err)
		}
	}
}

// TestReplMixedVersionInterop proves v1 and v2 peers still interoperate
// with the replication opcodes in play: the same replication body
// decodes identically from a plain Version frame and a VersionTraced
// frame, and an untraced replication frame is byte-identical to what a
// v1-only peer would emit (version byte Version, 6-byte header).
func TestReplMixedVersionInterop(t *testing.T) {
	sub, _, _, _, _, batch, _ := replSamples()
	body := AppendReplSubscribe(nil, sub)

	v1 := AppendRequest(nil, Request{Op: OpReplSubscribe, ID: 3, Value: body})
	if v1[4] != Version {
		t.Fatalf("untraced repl frame got version %d, want %d", v1[4], Version)
	}
	v2 := AppendRequest(nil, Request{Op: OpReplSubscribe, ID: 3, Value: body, Flags: FlagTraced, TraceID: 99})
	if v2[4] != VersionTraced {
		t.Fatalf("traced repl frame got version %d, want %d", v2[4], VersionTraced)
	}
	d1, err1 := DecodeRequest(v1[4:])
	d2, err2 := DecodeRequest(v2[4:])
	if err1 != nil || err2 != nil {
		t.Fatalf("decode: %v, %v", err1, err2)
	}
	if !bytes.Equal(d1.Value, d2.Value) || !bytes.Equal(d1.Value, body) {
		t.Fatal("v1 and v2 framings disagree on the replication body")
	}
	s1, err := DecodeReplSubscribe(d1.Value)
	if err != nil || !reflect.DeepEqual(s1, sub) {
		t.Fatalf("subscribe body through v1 frame: %+v, %v", s1, err)
	}

	// Pushed batches the other way: a v1 replica must read a batch from
	// an untraced primary, and a v2 frame must carry the same body.
	bb := AppendReplBatch(nil, batch)
	r1 := AppendResponse(nil, Response{Code: RespReplBatch, ID: 0, Value: bb})
	r2 := AppendResponse(nil, Response{Code: RespReplBatch, ID: 0, Value: bb, TraceID: 5})
	if r1[4] != Version || r2[4] != VersionTraced {
		t.Fatalf("batch frame versions: %d, %d", r1[4], r2[4])
	}
	p1, err1 := DecodeResponse(r1[4:])
	p2, err2 := DecodeResponse(r2[4:])
	if err1 != nil || err2 != nil || !bytes.Equal(p1.Value, p2.Value) {
		t.Fatalf("batch body differs across versions: %v %v", err1, err2)
	}
}

// FuzzDecodeRepl targets the replication body decoders: the first input
// byte selects the decoder, the rest is the body. No input may panic or
// over-read, and whatever decodes must re-encode byte-identically —
// the codecs have a canonical form, so decode∘encode is the identity on
// every accepted body.
func FuzzDecodeRepl(f *testing.F) {
	sub, ack, pro, wait, lsns, batch, snap := replSamples()
	f.Add(append([]byte{0}, AppendReplSubscribe(nil, sub)...))
	f.Add(append([]byte{1}, AppendReplAck(nil, ack)...))
	f.Add(append([]byte{2}, AppendReplPromote(nil, pro)...))
	f.Add(append([]byte{3}, AppendReplWait(nil, wait)...))
	f.Add(append([]byte{4}, AppendReplLSNs(nil, lsns)...))
	f.Add(append([]byte{5}, AppendReplBatch(nil, batch)...))
	f.Add(append([]byte{6}, AppendReplSnap(nil, snap)...))
	f.Add([]byte{5, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 3, 0xff, 0xff, 0xff, 0xff}) // hostile count
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		sel, body := data[0]%7, data[1:]
		var reenc []byte
		var err error
		switch sel {
		case 0:
			var v ReplSubscribe
			if v, err = DecodeReplSubscribe(body); err == nil {
				reenc = AppendReplSubscribe(nil, v)
			}
		case 1:
			var v ReplAck
			if v, err = DecodeReplAck(body); err == nil {
				reenc = AppendReplAck(nil, v)
			}
		case 2:
			var v ReplPromote
			if v, err = DecodeReplPromote(body); err == nil {
				reenc = AppendReplPromote(nil, v)
			}
		case 3:
			var v ReplWait
			if v, err = DecodeReplWait(body); err == nil {
				reenc = AppendReplWait(nil, v)
			}
		case 4:
			var v ReplLSNs
			if v, err = DecodeReplLSNs(body); err == nil {
				reenc = AppendReplLSNs(nil, v)
			}
		case 5:
			var v ReplBatch
			if v, err = DecodeReplBatch(body); err == nil {
				reenc = AppendReplBatch(nil, v)
			}
		case 6:
			var v ReplSnap
			if v, err = DecodeReplSnap(body); err == nil {
				reenc = AppendReplSnap(nil, v)
			}
		}
		if err != nil {
			return
		}
		if !bytes.Equal(reenc, body) {
			t.Fatalf("decoder %d: re-encode differs from accepted input", sel)
		}
	})
}

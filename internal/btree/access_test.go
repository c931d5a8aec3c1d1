package btree

import (
	"bytes"
	"encoding/binary"
	"testing"

	"nvmstore/internal/core"
)

func TestAccessReadAndUpdate(t *testing.T) {
	for _, layout := range []LeafLayout{LayoutSorted, LayoutHash} {
		name := "sorted"
		if layout == LayoutHash {
			name = "hash"
		}
		t.Run(name, func(t *testing.T) {
			m := newManager(t, core.DRAMNVM, 8, true, layout == LayoutSorted, false)
			tr, _ := Create(m, 1, 64, layout)
			want := payloadFor(9, 64)
			if err := tr.Insert(9, want); err != nil {
				t.Fatal(err)
			}

			// Read several fields and update one, all in a single descent.
			found, err := tr.Access(9, func(r Row) error {
				if got := r.Read(0, 16); !bytes.Equal(got, want[:16]) {
					t.Fatal("Read mismatch")
				}
				var cp [8]byte
				r.Get(8, 8, cp[:])
				if !bytes.Equal(cp[:], want[8:16]) {
					t.Fatal("Get mismatch")
				}
				return r.Update(32, []byte("patched"))
			})
			if err != nil || !found {
				t.Fatalf("Access = %v, %v", found, err)
			}
			copy(want[32:], "patched")
			checkLookup(t, tr, 9, want)
		})
	}
}

func TestAccessMissingKey(t *testing.T) {
	m := newManager(t, core.MemOnly, 0, false, false, false)
	tr, _ := Create(m, 1, 32, LayoutSorted)
	called := false
	found, err := tr.Access(5, func(Row) error { called = true; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if found || called {
		t.Fatalf("Access on absent key: found=%v called=%v", found, called)
	}
}

func TestRowIntHelpers(t *testing.T) {
	m := newManager(t, core.MemOnly, 0, false, false, false)
	tr, _ := Create(m, 1, 32, LayoutSorted)
	row := make([]byte, 32)
	binary.LittleEndian.PutUint16(row[0:], 0xBEEF)
	binary.LittleEndian.PutUint32(row[2:], 0xCAFEBABE)
	binary.LittleEndian.PutUint64(row[6:], 0x0123456789ABCDEF)
	binary.LittleEndian.PutUint64(row[14:], uint64(0xFFFFFFFFFFFFFFFF)) // -1
	if err := tr.Insert(1, row); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Access(1, func(r Row) error {
		if r.U16(0) != 0xBEEF {
			t.Errorf("U16 = %#x", r.U16(0))
		}
		if r.U32(2) != 0xCAFEBABE {
			t.Errorf("U32 = %#x", r.U32(2))
		}
		if r.I64(6) != 0x0123456789ABCDEF {
			t.Errorf("I64 = %#x", r.I64(6))
		}
		if r.I64(14) != -1 {
			t.Errorf("I64 negative = %d", r.I64(14))
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestRowUpdateLogsImages(t *testing.T) {
	m := newManager(t, core.MemOnly, 0, false, false, false)
	tr, _ := Create(m, 1, 16, LayoutSorted)
	if err := tr.Insert(3, payloadFor(3, 16)); err != nil {
		t.Fatal(err)
	}
	rec := &loggerRecorder{}
	tr.SetLogger(rec)
	if _, err := tr.Access(3, func(r Row) error {
		return r.Update(4, []byte("zz"))
	}); err != nil {
		t.Fatal(err)
	}
	if len(rec.events) != 1 || rec.events[0] != "update:1:3:4" {
		t.Fatalf("events = %v", rec.events)
	}
}

// TestRowUpdateLeavesSnapshotAlone: a row updated through Access, the
// path TPC-C writes by, keeps the leaf's image from before the update for
// an open snapshot, as UpdateField does: a snapshot read at the
// snapshot's stamp returns the old bytes, a live read the new ones.
func TestRowUpdateLeavesSnapshotAlone(t *testing.T) {
	for _, layout := range []LeafLayout{LayoutSorted, LayoutHash} {
		m := newManager(t, core.ThreeTier, 8, true, true, true)
		tr, _ := Create(m, 1, 64, layout)
		v := m.Versions()
		v.BeginTx()
		old := payloadFor(9, 64)
		if err := tr.Insert(9, old); err != nil {
			t.Fatal(err)
		}
		id, asOf := v.BeginSnapshot()
		v.BeginTx()
		if _, err := tr.Access(9, func(r Row) error { return r.Update(0, []byte("patched")) }); err != nil {
			t.Fatal(err)
		}
		var got []byte
		if _, _, err := tr.VisitLeafAsOf(tr.RootPID(), asOf, 0, 0, 64, func(k uint64, field []byte) bool {
			if k == 9 {
				got = bytes.Clone(field)
			}
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, old) {
			t.Fatalf("layout %d: snapshot reads %q, want the row from before the update", layout, got[:min(8, len(got))])
		}
		v.EndSnapshot(id)
		checkLookup(t, tr, 9, append([]byte("patched"), old[7:]...))
	}
}

func TestRowBoundsChecked(t *testing.T) {
	m := newManager(t, core.MemOnly, 0, false, false, false)
	tr, _ := Create(m, 1, 16, LayoutSorted)
	if err := tr.Insert(1, make([]byte, 16)); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Access(1, func(r Row) error {
		return r.Update(10, make([]byte, 10)) // past end
	}); err == nil {
		t.Fatal("out-of-range row update accepted")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range read did not panic")
		}
	}()
	_, _ = tr.Access(1, func(r Row) error {
		r.Read(15, 2)
		return nil
	})
}

// TestAccessUnderEviction exercises Access on mini pages cycling through
// the NVM tier, verifying updates persist.
func TestAccessUnderEviction(t *testing.T) {
	m := newManager(t, core.ThreeTier, 6, true, true, true)
	tr, _ := Create(m, 1, 128, LayoutSorted)
	const n = 2000
	for i := 0; i < n; i++ {
		if err := tr.Insert(uint64(i), payloadFor(uint64(i), 128)); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 3; round++ {
		if err := m.CleanShutdown(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i += 7 {
			key := uint64(i)
			val := []byte{byte(round), byte(i)}
			found, err := tr.Access(key, func(r Row) error {
				return r.Update(100, val)
			})
			if err != nil || !found {
				t.Fatalf("round %d key %d: %v %v", round, key, found, err)
			}
		}
	}
	buf := make([]byte, 128)
	for i := 0; i < n; i += 7 {
		found, err := tr.Lookup(uint64(i), buf)
		if err != nil || !found {
			t.Fatalf("key %d: %v %v", i, found, err)
		}
		if buf[100] != 2 || buf[101] != byte(i) {
			t.Fatalf("key %d: update lost: %v", i, buf[100:102])
		}
	}
}

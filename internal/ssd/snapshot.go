package ssd

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"runtime"
	"sort"

	"nvmstore/internal/offheap"
)

const snapshotMagic = 0x535344534e415031 // "SSDSNAP1"

// WriteSnapshot serializes the allocated pages (slots never written are
// omitted; they read back as zeroes either way).
func (d *Device) WriteSnapshot(w io.Writer) error {
	bw := bufio.NewWriter(w)
	var hdr [28]byte
	binary.LittleEndian.PutUint64(hdr[0:], snapshotMagic)
	binary.LittleEndian.PutUint32(hdr[8:], uint32(d.cfg.PageSize))
	binary.LittleEndian.PutUint64(hdr[12:], uint64(d.cfg.Capacity))
	binary.LittleEndian.PutUint64(hdr[20:], uint64(len(d.pages)))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	slots := make([]int64, 0, len(d.pages))
	for slot := range d.pages {
		slots = append(slots, slot)
	}
	sort.Slice(slots, func(a, b int) bool { return slots[a] < slots[b] })
	for _, slot := range slots {
		var sb [8]byte
		binary.LittleEndian.PutUint64(sb[:], uint64(slot))
		if _, err := bw.Write(sb[:]); err != nil {
			return err
		}
		if _, err := bw.Write(d.pages[slot]); err != nil {
			return err
		}
	}
	runtime.KeepAlive(d)
	return bw.Flush()
}

// ReadSnapshot restores a snapshot into this device, which must have the
// same page size and capacity. The restored pages come from a fresh arena,
// so the memory of the pages the device held before is released and no
// slot outside the snapshot is touched.
func (d *Device) ReadSnapshot(r io.Reader) error {
	br := bufio.NewReader(r)
	var hdr [28]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return fmt.Errorf("ssd: snapshot header: %w", err)
	}
	if binary.LittleEndian.Uint64(hdr[0:]) != snapshotMagic {
		return fmt.Errorf("ssd: bad snapshot magic")
	}
	pageSize := int(binary.LittleEndian.Uint32(hdr[8:]))
	capacity := int64(binary.LittleEndian.Uint64(hdr[12:]))
	count := int64(binary.LittleEndian.Uint64(hdr[20:]))
	if pageSize != d.cfg.PageSize || capacity != d.cfg.Capacity {
		return fmt.Errorf("ssd: snapshot geometry %d×%d does not match device %d×%d",
			capacity, pageSize, d.cfg.Capacity, d.cfg.PageSize)
	}
	d.arena, d.pages = offheap.New(), make(map[int64][]byte, count)
	for i := int64(0); i < count; i++ {
		var sb [8]byte
		if _, err := io.ReadFull(br, sb[:]); err != nil {
			return fmt.Errorf("ssd: snapshot slot: %w", err)
		}
		slot := int64(binary.LittleEndian.Uint64(sb[:]))
		if slot < 0 || slot >= capacity {
			return fmt.Errorf("ssd: snapshot slot %d out of range", slot)
		}
		page := d.arena.Alloc(pageSize)
		if _, err := io.ReadFull(br, page); err != nil {
			return fmt.Errorf("ssd: snapshot page: %w", err)
		}
		d.pages[slot] = page
	}
	return nil
}

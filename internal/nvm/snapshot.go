package nvm

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// Snapshot serialization lets a simulated device outlive the process: the
// durable content (and wear history) is written to a stream and restored
// into a compatible device later. Unflushed strict-persistence writes are
// *not* part of a snapshot — only durable state is, exactly as if the
// machine lost power after the snapshot.

const snapshotMagic = 0x4e564d534e415031 // "NVMSNAP1"

// WriteSnapshot writes the device's durable content and wear counters.
func (d *Device) WriteSnapshot(w io.Writer) error {
	bw := bufio.NewWriter(w)
	var hdr [24]byte
	binary.LittleEndian.PutUint64(hdr[0:], snapshotMagic)
	binary.LittleEndian.PutUint64(hdr[8:], uint64(d.cfg.Size))
	binary.LittleEndian.PutUint64(hdr[16:], uint64(len(d.wear)))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	// Durable content: revert any unflushed lines while writing.
	if len(d.pending) == 0 {
		if _, err := bw.Write(d.data); err != nil {
			return err
		}
	} else {
		for l := int64(0); l < int64(len(d.wear)); l++ {
			line := d.data[l*LineSize : (l+1)*LineSize]
			if prev, ok := d.pending[l]; ok {
				line = prev
			}
			if _, err := bw.Write(line); err != nil {
				return err
			}
		}
	}
	for _, c := range d.wear {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], c)
		if _, err := bw.Write(b[:]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadSnapshot restores a snapshot into this device, which must have the
// same size. The simulated CPU cache starts cold, as after a real restart.
func (d *Device) ReadSnapshot(r io.Reader) error {
	br := bufio.NewReader(r)
	var hdr [24]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return fmt.Errorf("nvm: snapshot header: %w", err)
	}
	if binary.LittleEndian.Uint64(hdr[0:]) != snapshotMagic {
		return fmt.Errorf("nvm: bad snapshot magic")
	}
	size := int64(binary.LittleEndian.Uint64(hdr[8:]))
	lines := int64(binary.LittleEndian.Uint64(hdr[16:]))
	if size != d.cfg.Size || lines != int64(len(d.wear)) {
		return fmt.Errorf("nvm: snapshot of %d bytes does not fit device of %d", size, d.cfg.Size)
	}
	if _, err := io.ReadFull(br, d.data); err != nil {
		return fmt.Errorf("nvm: snapshot data: %w", err)
	}
	d.wearTotal = 0
	var b [4]byte
	for i := range d.wear {
		if _, err := io.ReadFull(br, b[:]); err != nil {
			return fmt.Errorf("nvm: snapshot wear: %w", err)
		}
		d.wear[i] = binary.LittleEndian.Uint32(b[:])
		d.wearTotal += int64(d.wear[i])
	}
	if d.pending != nil {
		d.pending = make(map[int64][]byte)
	}
	d.DropCPUCache()
	return nil
}

package core

import (
	"encoding/binary"
	"fmt"
)

// This file implements the paper's §4.4: the page mapping table is volatile
// and is reconstructed after a restart by scanning the page headers on NVM,
// which is feasible because NVM — unlike flash — supports fast random
// reads. A small superblock persists the page-allocation watermark and a
// user metadata blob (engines store their catalog there, e.g. tree roots).

func (m *Manager) superOff() int64 { return m.cfg.WALBytes }

// persistSuper writes and flushes the full superblock: magic, nextPID, and
// the user metadata.
func (m *Manager) persistSuper() {
	var h [16]byte
	binary.LittleEndian.PutUint64(h[0:], superMagic)
	binary.LittleEndian.PutUint64(h[8:], uint64(m.nextPID))
	m.persist(causeSlotMeta, h[:], m.superOff())
}

// persistNextPID flushes only the allocation watermark, called on every
// page allocation so that a crash never forgets allocated pages.
func (m *Manager) persistNextPID() {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(m.nextPID))
	m.persist(causeSlotMeta, b[:], m.superOff()+8)
}

// SetUserMeta durably stores up to 1 KB of engine metadata (for example a
// tree catalog) in the superblock.
func (m *Manager) SetUserMeta(b []byte) error {
	if len(b) > userMetaMax {
		return fmt.Errorf("core: user metadata of %d bytes exceeds %d", len(b), userMetaMax)
	}
	buf := make([]byte, 2+userMetaMax)
	binary.LittleEndian.PutUint16(buf[0:], uint16(len(b)))
	copy(buf[2:], b)
	m.persist(causeSlotMeta, buf, m.superOff()+64)
	return nil
}

// UserMeta returns the metadata stored by SetUserMeta (empty if none).
func (m *Manager) UserMeta() []byte {
	buf := make([]byte, 2+userMetaMax)
	m.nvm.ReadAt(buf, m.superOff()+64)
	n := binary.LittleEndian.Uint16(buf[0:])
	if int(n) > userMetaMax {
		return nil
	}
	return buf[2 : 2+n]
}

func (m *Manager) readSuper() error {
	var h [16]byte
	m.nvm.ReadAt(h[:], m.superOff())
	if binary.LittleEndian.Uint64(h[0:]) != superMagic {
		return fmt.Errorf("core: superblock magic mismatch")
	}
	m.nextPID = PageID(binary.LittleEndian.Uint64(h[8:]))
	if m.nextPID == 0 {
		m.nextPID = 1
	}
	return nil
}

// CleanShutdown writes every dirty page back to its persistent home and
// releases all DRAM frames. No page may be pinned. After a clean shutdown
// the three-tier NVM cache still holds its pages — the warm-cache property
// measured in Figure 17.
func (m *Manager) CleanShutdown() error {
	for _, f := range m.frames {
		if f != nil && f.pins > 0 {
			return fmt.Errorf("core: clean shutdown with page %d pinned", f.pid)
		}
	}
	for {
		progress := false
		remaining := false
		for _, f := range m.frames {
			if f == nil {
				continue
			}
			if f.swizzledChildren > 0 {
				remaining = true
				continue
			}
			m.evictFrame(f)
			progress = true
		}
		if !remaining {
			break
		}
		if !progress {
			return fmt.Errorf("core: clean shutdown stuck on swizzled pages")
		}
	}
	m.persistSuper()
	return nil
}

// CleanRestart simulates stopping and restarting the system cleanly:
// dirty pages are written back, all volatile state (DRAM frames, mapping
// table, CPU caches, load counts) is dropped, and the mapping table is
// rebuilt from the NVM page headers. The time for the rebuild scan is
// charged to the simulated clock, reproducing the ~200 ms table
// reconstruction the paper reports.
func (m *Manager) CleanRestart() error {
	if err := m.CleanShutdown(); err != nil {
		return err
	}
	return m.reopen()
}

// CrashRestart simulates a power failure and restart: DRAM content is lost
// without write-back, unflushed NVM lines revert (in strict-persistence
// mode), and the mapping table is rebuilt from NVM. WAL-based redo/undo is
// the responsibility of the engine layered above.
func (m *Manager) CrashRestart() error {
	for _, f := range m.frames {
		if f == nil {
			continue
		}
		f.pins = 0
		f.swizzledChildren = 0
		f.parent, f.rootHolder, f.promoted = nil, nil, nil
		m.dropFrame(f)
	}
	m.nvm.Crash()
	return m.reopen()
}

// reopen resets all volatile state and rebuilds the mapping table.
func (m *Manager) reopen() error {
	// Invalidate open snapshots and drop version state before any page
	// content is rewritten outside the version protocol.
	m.vers.Reset()
	m.table = make(map[PageID]location)
	m.frames = m.frames[:0]
	m.freeFrames = m.freeFrames[:0]
	m.clockHand = 0
	m.dramUsed = 0
	m.nvm.DropCPUCache()
	if err := m.readSuper(); err != nil {
		return err
	}
	// Undo any write-back a crash interrupted before trusting the slot
	// contents the rebuild scan will read.
	m.replayJournal()
	m.rebuildFromNVM()
	return nil
}

// rebuildFromNVM scans every NVM page-slot header and reconstructs the
// combined mapping table and slot directory (§4.4). Only the three-tier
// topology needs this: the basic NVM buffer manager and the direct engine
// locate pages by identity (slot = pid-1), and SSD-only topologies keep
// nothing on NVM.
func (m *Manager) rebuildFromNVM() {
	if m.cfg.Topology != ThreeTier {
		return
	}
	m.nvmDir = make([]nvmSlotMeta, m.nvmSlots)
	// The load counts are volatile. Every page the scan finds has been in
	// DRAM at least once, and starts from that: counted as zero it would
	// lose its slot to the first cold page that passes through DRAM.
	m.loads = make([]uint8, m.nextPID)
	m.loadsSince = 0
	m.freeSlots = m.freeSlots[:0]
	m.nvmHand = 0
	for slot := m.nvmSlots - 1; slot >= 0; slot-- {
		pid, dirty, ok := m.readSlotHeader(slot)
		if !ok {
			m.freeSlots = append(m.freeSlots, slot)
			continue
		}
		m.nvmDir[slot] = nvmSlotMeta{pid: pid, dirtyWrtSSD: dirty}
		m.loads[pid] = 1
		m.table[pid] = nvmLoc(slot)
	}
}

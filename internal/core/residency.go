package core

// Residency is a set of gauges describing where pages currently live in
// the storage hierarchy. Unlike Stats (event counters), these are
// instantaneous values computed by walking the manager's in-DRAM state;
// nothing on the hot path maintains them. The same synchronization
// contract as Stats applies: call only while the owning engine is idle.
type Residency struct {
	// DRAM buffer pool.
	DRAMFullPages     int64 `json:"dramFullPages"`
	DRAMMiniPages     int64 `json:"dramMiniPages"`
	DRAMLinesResident int64 `json:"dramLinesResident"`
	DRAMLinesDirty    int64 `json:"dramLinesDirty"`
	DRAMDirtyPages    int64 `json:"dramDirtyPages"`
	DRAMPinnedPages   int64 `json:"dramPinnedPages"`
	DRAMBytesUsed     int64 `json:"dramBytesUsed"`

	// NVM tier: pages cached (ThreeTier) or stored (DRAMNVM, DirectNVM)
	// on NVM, and — for the cache — how many are newer than their SSD
	// copy.
	NVMPages      int64 `json:"nvmPages"`
	NVMDirtyPages int64 `json:"nvmDirtyPages"`
	NVMSlots      int64 `json:"nvmSlots"`

	// SSD tier: pages whose current copy is on the SSD — written there,
	// and not trimmed since an NVM slot took a newer copy — and the host
	// bytes the simulated device holds (ssd.Device.StoredBytes).
	SSDPages       int64 `json:"ssdPages"`
	SSDStoredBytes int64 `json:"ssdStoredBytes"`
}

// Add folds other into r, for aggregating per-shard gauges.
func (r *Residency) Add(other Residency) {
	r.DRAMFullPages += other.DRAMFullPages
	r.DRAMMiniPages += other.DRAMMiniPages
	r.DRAMLinesResident += other.DRAMLinesResident
	r.DRAMLinesDirty += other.DRAMLinesDirty
	r.DRAMDirtyPages += other.DRAMDirtyPages
	r.DRAMPinnedPages += other.DRAMPinnedPages
	r.DRAMBytesUsed += other.DRAMBytesUsed
	r.NVMPages += other.NVMPages
	r.NVMDirtyPages += other.NVMDirtyPages
	r.NVMSlots += other.NVMSlots
	r.SSDPages += other.SSDPages
	r.SSDStoredBytes += other.SSDStoredBytes
}

// popcount16 counts the set bits of a mini page's dirty mask.
func popcount16(x uint16) int64 {
	n := int64(0)
	for ; x != 0; x &= x - 1 {
		n++
	}
	return n
}

// Residency computes the current per-tier residency gauges.
func (m *Manager) Residency() Residency {
	var r Residency
	for _, f := range m.frames {
		if f == nil {
			continue
		}
		if f.kind == kindMini {
			r.DRAMMiniPages++
			if f.promoted == nil {
				r.DRAMLinesResident += int64(f.count)
				r.DRAMLinesDirty += popcount16(f.miniDirty)
			}
		} else {
			r.DRAMFullPages++
			if f.fullyResident {
				r.DRAMLinesResident += LinesPerPage
			} else {
				r.DRAMLinesResident += int64(f.resident.count())
			}
			r.DRAMLinesDirty += int64(f.dirty.count())
		}
		if f.anyDirty {
			r.DRAMDirtyPages++
		}
		if f.pins > 0 {
			r.DRAMPinnedPages++
		}
	}
	r.DRAMBytesUsed = m.dramUsed
	r.NVMSlots = m.nvmSlots
	switch m.cfg.Topology {
	case ThreeTier:
		for i := range m.nvmDir {
			e := &m.nvmDir[i]
			if e.pid == 0 {
				continue
			}
			r.NVMPages++
			if e.dirtyWrtSSD {
				r.NVMDirtyPages++
			}
		}
	case DRAMNVM, DirectNVM:
		// Every allocated page lives on NVM; there is no separate cache
		// directory.
		r.NVMPages = int64(m.nextPID - 1)
	}
	if m.ssd != nil {
		r.SSDPages = m.ssd.Allocated()
		r.SSDStoredBytes = m.ssd.StoredBytes()
	}
	return r
}

package core

import (
	"math"
	"sort"
)

// This file implements the multi-version read path: per-page version
// stamps plus copy-on-write leaf images, so read transactions can see a
// stable snapshot while writers keep modifying the tree.
//
// All of it — the per-page version counters, the version store of
// copy-on-write images, the active-snapshot registry, the transaction
// stamp, the restart epoch — follows the Manager's single-threaded
// contract: it is only touched while the owning engine is quiescent
// (under the shard lock in the sharded driver). Nothing reads it from
// outside that lock; snapshot scans read the live page or a saved image in
// place under the lock and take only the rows they return out of it.
//
// Stamps are per-engine transaction sequence numbers: Engine.Begin
// advances the stamp, and every page modified by a transaction carries
// the transaction's stamp as its version. A snapshot created between
// transactions captures the current stamp S; a page whose version is
// <= S still shows its content as of S, and the first post-snapshot
// modification saves a copy of the committed image (tagged with the old
// version) into the version store before bumping. Rolled-back
// transactions are safe by construction: their mid-flight images carry
// the transaction's own stamp, which is greater than every active
// snapshot's, so they are neither saved as snapshot-visible nor served.

// VersionStats counts read-path and version-store events. Cumulative
// counters survive restarts; Live and ActiveSnapshots reflect current
// state.
type VersionStats struct {
	Saved           int64  // copy-on-write images saved
	Reclaimed       int64  // images reclaimed after their snapshots closed
	Live            int64  // images currently held in the version store
	Served          int64  // as-of leaves read by snapshot readers, live or saved
	ChainMax        int64  // longest per-page version chain observed
	ActiveSnapshots int64  // snapshots currently pinning versions
	Stamp           uint64 // current transaction stamp
}

// pageVersion is one saved copy-on-write image: the page content that was
// current while the page's version counter read ver.
type pageVersion struct {
	ver   uint64
	image []byte
}

// Versions tracks per-page version counters and the copy-on-write version
// store for one Manager. Every method follows the Manager's
// single-threaded contract (hold the shard lock in the sharded driver).
type Versions struct {
	// counters holds each page's current version stamp (absent = 0, never
	// modified since tracking began).
	counters map[PageID]uint64
	// epoch invalidates open snapshots wholesale: it advances whenever a
	// restart rewrites page content outside the version protocol.
	epoch uint64

	stamp     uint64
	nextSnap  uint64
	snaps     map[uint64]uint64 // snapshot id -> pinned stamp
	maxActive uint64            // largest pinned stamp (valid when snaps non-empty)
	store     map[PageID][]pageVersion
	// widened holds, per leaf whose routed range widened while a snapshot
	// older than the widening was open, the stamp of its latest widening.
	widened map[PageID]uint64
	stats   VersionStats
}

func newVersions() *Versions {
	return &Versions{
		counters: make(map[PageID]uint64),
		snaps:    make(map[uint64]uint64),
		store:    make(map[PageID][]pageVersion),
		widened:  make(map[PageID]uint64),
	}
}

// Versions returns the manager's multi-version read-path state.
func (m *Manager) Versions() *Versions { return m.vers }

// Epoch returns the restart epoch a snapshot is valid in.
func (v *Versions) Epoch() uint64 { return v.epoch }

// VerOf returns the current version stamp of a page (0 if never
// modified since tracking began).
func (v *Versions) VerOf(pid PageID) uint64 { return v.counters[pid] }

// BeginTx advances the transaction stamp and returns it. Engines call it
// once per transaction.
func (v *Versions) BeginTx() uint64 {
	v.stamp++
	v.stats.Stamp = v.stamp
	return v.stamp
}

// Stamp returns the current transaction stamp: a snapshot created now
// sees exactly the transactions with stamps <= Stamp().
func (v *Versions) Stamp() uint64 { return v.stamp }

// WillModify must be called before the first byte of a page modification.
// If any active snapshot still needs the page's current content, image()
// is invoked and the copy saved into the version store; either way the
// page's version counter advances to the current transaction stamp.
// Repeated calls within one transaction are cheap no-ops.
func (v *Versions) WillModify(pid PageID, image func() []byte) {
	cur := v.VerOf(pid)
	if v.stamp > 0 && cur == v.stamp {
		return // this transaction already modified the page
	}
	target := v.stamp
	if target <= cur {
		// Modification outside a transaction (bulk load, replay): invent
		// the next stamp so the version still advances.
		target = cur + 1
		v.stamp = target
		v.stats.Stamp = target
	}
	if len(v.snaps) > 0 && cur <= v.maxActive {
		chain := append(v.store[pid], pageVersion{ver: cur, image: append([]byte(nil), image()...)})
		v.store[pid] = chain
		v.stats.Saved++
		v.stats.Live++
		if n := int64(len(chain)); n > v.stats.ChainMax {
			v.stats.ChainMax = n
		}
	}
	v.counters[pid] = target
}

// NoteNewPage stamps a freshly allocated page with the current
// transaction stamp without saving an image: a page born after a snapshot
// must not present its content as part of that snapshot.
func (v *Versions) NoteNewPage(pid PageID) { v.counters[pid] = v.stamp }

// NoteWidened records that a leaf's routed range widened at the current
// stamp: keys that an older snapshot found in the leaf's left neighbour
// now route to it. It is the one exception to "a leaf's routed range only
// narrows" (btree's rightmost-leaf shift), so a snapshot scan must not
// start at such a leaf (WidenedAfter). Only a widening some open snapshot
// predates is recorded.
func (v *Versions) NoteWidened(pid PageID) {
	for _, s := range v.snaps {
		if s < v.stamp {
			v.widened[pid] = v.stamp
			return
		}
	}
}

// WidenedAfter reports whether the leaf's routed range widened after the
// snapshot stamp asOf, so that it may not have covered a key then that
// routes to it now.
func (v *Versions) WidenedAfter(pid PageID, asOf uint64) bool {
	return v.widened[pid] > asOf
}

// BeginSnapshot registers a snapshot pinned at the current stamp and
// returns its id and the pinned stamp.
func (v *Versions) BeginSnapshot() (id, asOf uint64) {
	v.nextSnap++
	id = v.nextSnap
	asOf = v.stamp
	v.snaps[id] = asOf
	if len(v.snaps) == 1 || asOf > v.maxActive {
		v.maxActive = asOf
	}
	v.stats.ActiveSnapshots = int64(len(v.snaps))
	return id, asOf
}

// EndSnapshot unregisters a snapshot and eagerly reclaims the versions
// nothing pins anymore, returning the number reclaimed. Unknown ids
// (e.g. after a restart reset the registry) are ignored.
func (v *Versions) EndSnapshot(id uint64) int64 {
	if _, ok := v.snaps[id]; !ok {
		return 0
	}
	delete(v.snaps, id)
	v.maxActive = 0
	for _, s := range v.snaps {
		if s > v.maxActive {
			v.maxActive = s
		}
	}
	v.stats.ActiveSnapshots = int64(len(v.snaps))
	v.dropWidenings()
	return v.Reclaim()
}

// dropWidenings forgets every widening that no open snapshot predates.
func (v *Versions) dropWidenings() {
	if len(v.widened) == 0 {
		return
	}
	oldest := uint64(math.MaxUint64)
	for _, s := range v.snaps {
		oldest = min(oldest, s)
	}
	for pid, at := range v.widened {
		if at <= oldest {
			delete(v.widened, pid)
		}
	}
}

// ImageAsOf returns the saved image of a page as of the given stamp, or
// false if the version store has none (the caller checks VerOf first: a
// current version <= asOf means the live page itself is the image, and a
// miss here means the page did not exist at asOf).
func (v *Versions) ImageAsOf(pid PageID, asOf uint64) ([]byte, bool) {
	chain := v.store[pid]
	for i := len(chain) - 1; i >= 0; i-- {
		if chain[i].ver <= asOf {
			v.stats.Served++
			return chain[i].image, true
		}
	}
	return nil, false
}

// NoteServed counts one live leaf read in place by a snapshot reader
// (saved images count themselves in ImageAsOf).
func (v *Versions) NoteServed() { v.stats.Served++ }

// Reclaim drops every saved version no active snapshot can still read
// and returns the number dropped. EndSnapshot calls it: a version is only
// saved while a snapshot that can read it is open, so a snapshot closing
// is the only moment one becomes reclaimable.
func (v *Versions) Reclaim() int64 {
	if len(v.store) == 0 {
		return 0
	}
	var dropped int64
	if len(v.snaps) == 0 {
		for pid, chain := range v.store {
			dropped += int64(len(chain))
			delete(v.store, pid)
		}
	} else {
		stamps := make([]uint64, 0, len(v.snaps))
		for _, s := range v.snaps {
			stamps = append(stamps, s)
		}
		sort.Slice(stamps, func(a, b int) bool { return stamps[a] < stamps[b] })
		for pid, chain := range v.store {
			kept := make([]pageVersion, 0, len(chain))
			for i, pv := range chain {
				// Entry i serves snapshots with stamps in [ver, hi): up to
				// the next saved version, or up to the live page's version.
				hi := v.VerOf(pid)
				if i+1 < len(chain) {
					hi = chain[i+1].ver
				}
				if anyStampIn(stamps, pv.ver, hi) {
					kept = append(kept, pv)
				} else {
					dropped++
				}
			}
			if len(kept) == 0 {
				delete(v.store, pid)
			} else {
				v.store[pid] = kept
			}
		}
	}
	v.stats.Reclaimed += dropped
	v.stats.Live -= dropped
	return dropped
}

// anyStampIn reports whether the sorted stamps contain one in [lo, hi).
func anyStampIn(stamps []uint64, lo, hi uint64) bool {
	i := sort.Search(len(stamps), func(i int) bool { return stamps[i] >= lo })
	return i < len(stamps) && stamps[i] < hi
}

// Stats returns the read-path counters.
func (v *Versions) Stats() VersionStats { return v.stats }

// Reset invalidates every open snapshot and clears version state. Restart
// and snapshot-load paths call it before rewriting page content outside
// the version protocol.
func (v *Versions) Reset() {
	v.epoch++
	v.counters = make(map[PageID]uint64)
	v.store = make(map[PageID][]pageVersion)
	v.snaps = make(map[uint64]uint64)
	v.widened = make(map[PageID]uint64)
	v.maxActive = 0
	v.stamp = 0
	v.stats.Live = 0
	v.stats.ActiveSnapshots = 0
	v.stats.Stamp = 0
}

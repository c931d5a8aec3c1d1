package core

import "fmt"

// CheckInvariants validates the buffer manager's internal consistency and
// returns a descriptive error on the first violation. It is exported for
// tests and debugging tools; it walks every frame and is not meant for hot
// paths.
func (m *Manager) CheckInvariants() error {
	counts := make(map[*Frame]int32)
	for idx, f := range m.frames {
		if f == nil {
			continue
		}
		if int(f.idx) != idx {
			return fmt.Errorf("frame at %d has idx %d", idx, f.idx)
		}
		if f.promoted != nil {
			continue // wrapper: state lives in the promoted frame
		}
		if loc, ok := m.table[f.pid]; !ok || !loc.inDRAM() || loc.frame() != f.idx {
			return fmt.Errorf("page %d frame %d not mapped correctly (loc=%v ok=%v)", f.pid, f.idx, loc, ok)
		}
		if f.needsJournal && !f.anyDirty {
			return fmt.Errorf("page %d frame %d: journal flag set on a clean frame", f.pid, f.idx)
		}
		if f.kind == kindMini {
			if err := f.checkMini(); err != nil {
				return fmt.Errorf("page %d frame %d: %w", f.pid, f.idx, err)
			}
		}
		switch {
		case f.parent != nil:
			counts[f.parent]++
			ref := getRef(f.parent.data, int(f.parentOff))
			if !ref.Swizzled() || ref.frameIndex() != f.idx {
				return fmt.Errorf("page %d frame %d: parent page %d word at %d is %#x, want swizzled ref to frame %d",
					f.pid, f.idx, f.parent.pid, f.parentOff, uint64(ref), f.idx)
			}
		case f.rootHolder != nil:
			ref := *f.rootHolder
			if !ref.Swizzled() || ref.frameIndex() != f.idx {
				return fmt.Errorf("page %d frame %d: root holder is %#x, want swizzled ref to frame %d",
					f.pid, f.idx, uint64(ref), f.idx)
			}
		}
	}
	for p, n := range counts {
		if p.swizzledChildren != n {
			return fmt.Errorf("page %d: swizzledChildren=%d but %d frames name it as parent", p.pid, p.swizzledChildren, n)
		}
	}
	return nil
}

// checkMini validates an unpromoted mini page's slot directory: a k-line
// insert that shifted slots, data or the dirty mask by the wrong distance
// shows up here as unsorted slots or a dirty bit past the last slot.
func (f *Frame) checkMini() error {
	if f.count > MiniLines {
		return fmt.Errorf("mini page holds %d lines, above the limit of %d", f.count, MiniLines)
	}
	for i := 1; i < int(f.count); i++ {
		if f.slots[i-1] >= f.slots[i] {
			return fmt.Errorf("mini page slots %v not strictly ascending", f.slots[:f.count])
		}
	}
	if f.miniDirty>>f.count != 0 {
		return fmt.Errorf("mini page dirty mask %#x marks a slot at or above count %d", f.miniDirty, f.count)
	}
	if f.anyDirty != (f.miniDirty != 0) {
		return fmt.Errorf("mini page anyDirty=%v with dirty mask %#x", f.anyDirty, f.miniDirty)
	}
	return nil
}

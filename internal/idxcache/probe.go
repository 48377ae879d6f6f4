package idxcache

import (
	"encoding/binary"
	"math/bits"

	"repro/internal/btree"
	"repro/internal/storage"
)

// ScanProbe answers a range scan's per-row cache lookups in O(1). The
// first time the scan reaches a leaf, one pass over the free region
// records every cached rid's slot in an open-addressed rid→slot table;
// each row on that leaf is then one table probe plus one slot read
// instead of a walk over every slot (Cache.LookupInto's cost).
//
// The table is only a hint. Between two rows the scan drops the leaf
// latch, so point lookups may promote (swap) entries, fill slots,
// Prepare may zero the region, and key inserts may shrink it. Every
// hit therefore re-reads the rid at the remembered slot and checks the
// slot still lies inside FreeRegion, both under the latch the caller
// holds for this row; a mismatch or an absent rid falls back to the
// linear walk (and re-learns the rid's slot), and reaching a different
// page rebuilds the table. A stale hint costs one extra slot read, never
// a wrong payload. Scans never promote, so a probe hit never moves an
// entry.
//
// Activity counters are kept locally and flushed into the Cache's
// totals when the scan moves to another leaf and on Release, so a
// scan pays no shared atomic per row and Cache.Stats is exact once the
// probe is released. A ScanProbe is not safe for concurrent use: each
// cursor or parallel worker owns its own.
type ScanProbe struct {
	c     *Cache
	page  storage.PageID
	built bool
	shift uint     // 64 - log2(len(rids))
	rids  []uint64 // open-addressed by find; 0 = empty
	offs  []int32  // slot offset of rids[i]
	used  int      // nonzero entries in rids, kept ≤ len(rids)/2

	lookups, hits, misses, slotProbes int64
}

// ScanProbe returns a probe for one scan, recycled from earlier scans
// so steady-state scans allocate nothing. Release it when the scan
// ends.
func (c *Cache) ScanProbe() *ScanProbe {
	if p, ok := c.probes.Get().(*ScanProbe); ok {
		return p
	}
	return &ScanProbe{c: c}
}

// EntryInto is the scan's per-entry cache probe: it Prepares l and
// looks up the payload cached for the rid of l's entry at pos,
// appending it to dst. It reports false when the page's cache is
// unusable for this visit or the rid is not cached.
func (p *ScanProbe) EntryInto(dst []byte, l *btree.Leaf, pos int) ([]byte, bool) {
	if !p.c.Prepare(l) {
		return nil, false
	}
	return p.lookupInto(dst, l, l.ValueAt(pos))
}

// Release flushes the probe's counters into the Cache and recycles
// it. The probe must not be used afterwards.
func (p *ScanProbe) Release() {
	p.flush()
	p.built = false
	p.c.probes.Put(p)
}

// flush adds the locally counted activity to the Cache's totals.
func (p *ScanProbe) flush() {
	if p.lookups == 0 && p.slotProbes == 0 {
		return
	}
	c := p.c
	c.lookups.Add(p.lookups)
	c.hits.Add(p.hits)
	c.misses.Add(p.misses)
	c.slotProbes.Add(p.slotProbes)
	p.lookups, p.hits, p.misses, p.slotProbes = 0, 0, 0, 0
}

// lookupInto is Cache.LookupInto for a scan: it appends rid's cached
// payload to dst and reports whether it was found. The caller holds
// l's latch (shared is enough) and has Prepare'd the page.
func (p *ScanProbe) lookupInto(dst []byte, l *btree.Leaf, rid uint64) ([]byte, bool) {
	if !p.built || l.PageID() != p.page {
		p.flush()
		p.build(l)
	}
	p.lookups++
	if rid == 0 {
		p.misses++
		return nil, false
	}
	lo, hi := l.FreeRegion()
	data := l.Data()
	e := p.c.entrySize
	i := p.find(rid)
	if p.rids[i] == rid {
		off := int(p.offs[i])
		p.slotProbes++
		if off >= lo && off+e <= hi && binary.LittleEndian.Uint64(data[off:]) == rid {
			p.hits++
			return append(dst, data[off+ridBytes:off+e]...), true
		}
	}
	off, probed := p.c.findSlot(data, lo, hi, rid)
	p.slotProbes += int64(probed)
	if off < 0 {
		p.misses++
		return nil, false
	}
	// Re-learn the rid's slot. A region that grew since the build may
	// hold more rids than the table was sized for; past half full the
	// table stops learning, so find always meets an empty entry.
	if p.rids[i] == 0 && p.used < len(p.rids)/2 {
		p.rids[i] = rid
		p.used++
	}
	if p.rids[i] == rid {
		p.offs[i] = int32(off)
	}
	p.hits++
	return append(dst, data[off+ridBytes:off+e]...), true
}

// build records the slot of every cached rid on l in one pass over its
// free region.
func (p *ScanProbe) build(l *btree.Leaf) {
	p.page, p.built = l.PageID(), true
	lo, hi := l.FreeRegion()
	e := p.c.entrySize
	// Size the table to at least twice the slot count, so linear
	// probing stays short even when every slot is full.
	size := 16
	for size < 2*numSlots(lo, hi, e) {
		size <<= 1
	}
	if cap(p.rids) < size {
		p.rids = make([]uint64, size)
		p.offs = make([]int32, size)
	} else {
		p.rids = p.rids[:size]
		p.offs = p.offs[:size]
		clear(p.rids)
	}
	p.used = 0
	p.shift = uint(64 - bits.TrailingZeros(uint(size)))
	data := l.Data()
	for off := (lo + e - 1) / e * e; off+e <= hi; off += e {
		p.slotProbes++
		rid := binary.LittleEndian.Uint64(data[off:])
		if rid == 0 {
			continue
		}
		// The first slot holding rid wins, as in the linear walk.
		if i := p.find(rid); p.rids[i] == 0 {
			p.rids[i], p.offs[i] = rid, int32(off)
			p.used++
		}
	}
}

// find returns the table index holding rid, or the empty index where
// rid would go.
func (p *ScanProbe) find(rid uint64) int {
	mask := len(p.rids) - 1
	i := int((rid * 0x9E3779B97F4A7C15) >> p.shift)
	for p.rids[i] != 0 && p.rids[i] != rid {
		i = (i + 1) & mask
	}
	return i
}

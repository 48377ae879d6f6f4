package idxcache

import (
	"encoding/binary"
	"testing"

	"repro/internal/btree"
)

// ridPay is a payload that names its rid, so a probe serving another
// entry's bytes is caught.
func ridPay(c *Cache, rid uint64) []byte {
	p := make([]byte, c.PayloadSize())
	binary.LittleEndian.PutUint64(p, rid)
	return p
}

// fillLeaf caches rids 1..n (or as many as fit) on the leaf holding key
// and returns how many landed.
func fillLeaf(t *testing.T, tr *btree.Tree, c *Cache, key []byte, base uint64, n int) int {
	t.Helper()
	installed := 0
	err := tr.VisitLeaf(key, func(l *btree.Leaf) {
		if !c.Prepare(l) {
			t.Fatal("Prepare failed with exclusive latch")
		}
		for i := 0; i < n && installed < c.SlotsIn(l); i++ {
			if c.Insert(l, base+uint64(i), ridPay(c, base+uint64(i))) {
				installed++
			}
		}
	})
	if err != nil {
		t.Fatalf("VisitLeaf: %v", err)
	}
	return installed
}

// probeVisit runs fn against the leaf holding key, as one scan row
// visit: the probe survives across visits, the latch does not.
func probeVisit(t *testing.T, tr *btree.Tree, key []byte, fn func(l *btree.Leaf)) {
	t.Helper()
	if err := tr.VisitLeaf(key, fn); err != nil {
		t.Fatalf("VisitLeaf: %v", err)
	}
}

// probeGet looks rid up through p and fails the test if it serves any
// payload but rid's own.
func probeGet(t *testing.T, c *Cache, p *ScanProbe, l *btree.Leaf, rid uint64) bool {
	t.Helper()
	got, ok := p.lookupInto(nil, l, rid)
	if ok && binary.LittleEndian.Uint64(got) != rid {
		t.Fatalf("rid %d served the payload of rid %d", rid, binary.LittleEndian.Uint64(got))
	}
	return ok
}

func TestScanProbeFindsEveryCachedRID(t *testing.T) {
	tr := newCacheTree(t, 4096)
	c := mustCache(t, Config{PayloadSize: 12, Seed: 1})
	tr.Insert(k64(0), 1)
	n := fillLeaf(t, tr, c, k64(0), 1, 1000)
	if n < 50 {
		t.Fatalf("only %d entries cached", n)
	}
	before := c.Stats()
	p := c.ScanProbe()
	slots := 0
	probeVisit(t, tr, k64(0), func(l *btree.Leaf) {
		slots = c.SlotsIn(l)
		for rid := uint64(1); rid <= uint64(n); rid++ {
			if !probeGet(t, c, p, l, rid) {
				t.Fatalf("cached rid %d missed", rid)
			}
		}
	})
	// Counters are local until Release, then exact.
	if mid := c.Stats(); mid.Lookups != before.Lookups || mid.SlotProbes != before.SlotProbes {
		t.Fatalf("probe flushed before Release: %+v", mid)
	}
	p.Release()
	st := c.Stats()
	if d := st.Lookups - before.Lookups; d != int64(n) {
		t.Errorf("lookups delta %d, want %d", d, n)
	}
	if d := st.Hits - before.Hits; d != int64(n) {
		t.Errorf("hits delta %d, want %d", d, n)
	}
	// One build pass over every slot plus one re-verify per hit.
	if d := st.SlotProbes - before.SlotProbes; d != int64(slots+n) {
		t.Errorf("slot probes delta %d, want %d build + %d verifies", d, slots, n)
	}
}

func TestScanProbeMissesAbsentRID(t *testing.T) {
	tr := newCacheTree(t, 4096)
	c := mustCache(t, Config{PayloadSize: 12, Seed: 1})
	tr.Insert(k64(0), 1)
	fillLeaf(t, tr, c, k64(0), 1, 10)
	p := c.ScanProbe()
	defer p.Release()
	probeVisit(t, tr, k64(0), func(l *btree.Leaf) {
		if probeGet(t, c, p, l, 999) {
			t.Error("uncached rid hit")
		}
		if probeGet(t, c, p, l, 0) {
			t.Error("rid 0 hit")
		}
		// Filled after the build: found by the fallback walk.
		if !c.Insert(l, 777, ridPay(c, 777)) {
			t.Fatal("Insert 777 failed")
		}
		if !probeGet(t, c, p, l, 777) {
			t.Error("rid cached after the build missed")
		}
	})
}

func TestScanProbeFallsBackAfterPromotion(t *testing.T) {
	tr := newCacheTree(t, 4096)
	c := mustCache(t, Config{PayloadSize: 12, BucketN: 2, Seed: 3})
	tr.Insert(k64(0), 1)
	n := fillLeaf(t, tr, c, k64(0), 1, 1000)
	p := c.ScanProbe()
	defer p.Release()
	probeVisit(t, tr, k64(0), func(l *btree.Leaf) {
		probeGet(t, c, p, l, 1) // build the table
	})
	// Point lookups under the exclusive latch swap entries toward the
	// stable point, moving them away from the slots the probe recorded.
	before := c.Stats().Swaps
	probeVisit(t, tr, k64(0), func(l *btree.Leaf) {
		for round := 0; round < 5; round++ {
			for rid := uint64(1); rid <= uint64(n); rid++ {
				c.LookupInto(nil, l, rid)
			}
		}
	})
	if c.Stats().Swaps == before {
		t.Fatal("no promotion swaps happened")
	}
	probeVisit(t, tr, k64(0), func(l *btree.Leaf) {
		for rid := uint64(1); rid <= uint64(n); rid++ {
			if !probeGet(t, c, p, l, rid) {
				t.Fatalf("rid %d missed after promotions", rid)
			}
		}
	})
}

func TestScanProbeAfterZeroRegion(t *testing.T) {
	tr := newCacheTree(t, 4096)
	c := mustCache(t, Config{PayloadSize: 12, Seed: 1})
	tr.Insert(k64(0), 1)
	n := fillLeaf(t, tr, c, k64(0), 1, 1000)
	p := c.ScanProbe()
	defer p.Release()
	probeVisit(t, tr, k64(0), func(l *btree.Leaf) {
		probeGet(t, c, p, l, 1)
	})
	c.InvalidateAll()
	probeVisit(t, tr, k64(0), func(l *btree.Leaf) {
		if !c.Prepare(l) {
			t.Fatal("Prepare failed with exclusive latch")
		}
		for rid := uint64(1); rid <= uint64(n); rid++ {
			if probeGet(t, c, p, l, rid) {
				t.Fatalf("rid %d hit after Prepare zeroed the region", rid)
			}
		}
	})
}

func TestScanProbeAfterRegionShrink(t *testing.T) {
	tr := newCacheTree(t, 4096)
	c := mustCache(t, Config{PayloadSize: 12, Seed: 5})
	tr.Insert(k64(0), 1)
	n := fillLeaf(t, tr, c, k64(0), 1, 1000)
	p := c.ScanProbe()
	defer p.Release()
	var lo0, hi0 int
	probeVisit(t, tr, k64(0), func(l *btree.Leaf) {
		lo0, hi0 = l.FreeRegion()
		probeGet(t, c, p, l, 1)
	})
	// Index inserts overwrite the region's periphery.
	for i := 1; i <= 60; i++ {
		tr.Insert(k64(i), uint64(i+1))
	}
	probeVisit(t, tr, k64(0), func(l *btree.Leaf) {
		lo, hi := l.FreeRegion()
		if hi-lo >= hi0-lo0 {
			t.Fatalf("free region did not shrink: [%d,%d) then [%d,%d)", lo0, hi0, lo, hi)
		}
		hits := 0
		for rid := uint64(1); rid <= uint64(n); rid++ {
			got := probeGet(t, c, p, l, rid)
			// The probe must agree with the linear walk on every rid.
			if want, _ := c.findSlot(l.Data(), lo, hi, rid); got != (want >= 0) {
				t.Fatalf("rid %d: probe hit=%v, linear walk hit=%v", rid, got, want >= 0)
			}
			if got {
				hits++
			}
		}
		if hits == 0 || hits == n {
			t.Fatalf("%d of %d rids survived the shrink; want some but not all", hits, n)
		}
	})
}

func TestScanProbeRebuildsOnPageChange(t *testing.T) {
	tr := newCacheTree(t, 1024)
	c := mustCache(t, Config{PayloadSize: 12, Seed: 7})
	for i := 0; i < 400; i++ {
		tr.Insert(k64(i), uint64(i+1))
	}
	first, last := k64(0), k64(399)
	var idA, idB any
	probeVisit(t, tr, first, func(l *btree.Leaf) { idA = l.PageID() })
	probeVisit(t, tr, last, func(l *btree.Leaf) { idB = l.PageID() })
	if idA == idB {
		t.Fatal("first and last key share a leaf; the tree did not split")
	}
	nA := fillLeaf(t, tr, c, first, 1, 100)
	nB := fillLeaf(t, tr, c, last, 1001, 100)
	if nA == 0 || nB == 0 {
		t.Fatalf("cached %d and %d entries", nA, nB)
	}
	p := c.ScanProbe()
	defer p.Release()
	for round := 0; round < 2; round++ {
		probeVisit(t, tr, first, func(l *btree.Leaf) {
			for i := 0; i < nA; i++ {
				if !probeGet(t, c, p, l, 1+uint64(i)) {
					t.Fatalf("leaf A rid %d missed", 1+i)
				}
			}
			if probeGet(t, c, p, l, 1001) {
				t.Fatal("leaf B's rid hit on leaf A")
			}
		})
		probeVisit(t, tr, last, func(l *btree.Leaf) {
			for i := 0; i < nB; i++ {
				if !probeGet(t, c, p, l, 1001+uint64(i)) {
					t.Fatalf("leaf B rid %d missed", 1001+i)
				}
			}
		})
	}
}

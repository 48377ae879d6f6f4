package core

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/tuple"
)

// TestFullRowLookupRacingUpdateLeavesNoStaleCache pins the window
// between a full-row lookup's heap fetch and its cache fill: an update
// of a cached field that commits inside it must not leave the
// pre-update payload cached, or a later covered read serves it.
func TestFullRowLookupRacingUpdateLeavesNoStaleCache(t *testing.T) {
	_, tb, ix := newQueryFixture(t, 200, true)
	const id = 7
	rid, ok, err := ix.LookupRID(tuple.Int64(id))
	if err != nil || !ok {
		t.Fatalf("LookupRID: ok=%v err=%v", ok, err)
	}
	updated := intRow(id)
	updated[1] = tuple.Int64(-1)
	fired := false
	testHookAfterHeapFetch = func() {
		if fired {
			return
		}
		fired = true
		// Same width as the old row, so the update stays in place and
		// touches no index leaf: it runs while the lookup holds its latch.
		if _, err := tb.Update(rid, updated); err != nil {
			t.Errorf("Update: %v", err)
		}
	}
	defer func() { testHookAfterHeapFetch = nil }()

	// Full-row lookup: the projection includes the uncached blob, so it
	// reads the heap and fills the cache on the way out.
	row, res, err := ix.Lookup(nil, tuple.Int64(id))
	if err != nil || !res.Found {
		t.Fatalf("Lookup: found=%v err=%v", res.Found, err)
	}
	if !fired {
		t.Fatal("hook did not run: the lookup never reached the heap")
	}
	if row[1].Int != int64(id*3) {
		t.Fatalf("full-row lookup read a=%d, want the pre-update %d", row[1].Int, id*3)
	}
	if !res.CacheFilled {
		t.Fatal("full-row lookup did not fill the cache; the race window is not exercised")
	}

	// Covered reads must see the update, by point lookup and by scan.
	row, _, err = ix.Lookup([]string{"id", "a"}, tuple.Int64(id))
	if err != nil {
		t.Fatalf("covered Lookup: %v", err)
	}
	if row[1].Int != -1 {
		t.Fatalf("covered lookup served stale a=%d after the update committed", row[1].Int)
	}
	cur, err := ix.Query(WithKeyRange([]tuple.Value{tuple.Int64(id)}, []tuple.Value{tuple.Int64(id + 1)}),
		WithProjection("id", "a"))
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	defer cur.Close()
	if !cur.Next() {
		t.Fatalf("covered scan found nothing: %v", cur.Err())
	}
	if got := cur.Row()[1].Int; got != -1 {
		t.Fatalf("covered scan served stale a=%d after the update committed", got)
	}
}

// versionRow is row id at version k of the race test below: a and b
// both encode (id, k), so a served row that mixes two rows' bytes or
// two versions' fields fails versionOf.
func versionRow(id, k int) tuple.Row {
	a := int64(id + k*racingRows)
	return tuple.Row{
		tuple.Int64(int64(id)),
		tuple.Int64(a),
		tuple.Int32(int32(a % 9973)),
		tuple.String(fmt.Sprintf("padding-padding-%06d", id)),
	}
}

const racingRows = 1500

// versionOf returns the version k a (id, a, b) row was written at, or
// -1 when no version of that id has those field values.
func versionOf(row tuple.Row) int {
	id, a, b := row[0].Int, row[1].Int, row[2].Int
	if a < id || (a-id)%racingRows != 0 || b != a%9973 {
		return -1
	}
	return int((a - id) / racingRows)
}

// TestCacheFirstScansRacingCacheTraffic runs cache-first scans
// (forward, reverse, parallel) against point lookups that promote and
// fill cache slots, updates of the cached fields, and inserts into the
// scanned leaves. The scans' rid→slot probes go stale under all of
// that; every row a scan serves must be a version its heap row held,
// no older than the one the heap held when the scan reached it.
func TestCacheFirstScansRacingCacheTraffic(t *testing.T) {
	e, err := NewEngine(Options{PageSize: 1024, BufferPoolPages: 2048})
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	defer e.Close()
	tb, err := e.CreateTable("t", intSchema())
	if err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	for i := 0; i < racingRows; i++ {
		if _, err := tb.Insert(versionRow(i, 0)); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	ix, err := tb.CreateIndex("by_id", []string{"id"}, WithCache("a", "b"), WithFillFactor(0.4))
	if err != nil {
		t.Fatalf("CreateIndex: %v", err)
	}
	// Half the rows start cached, so lookups both promote hits and fill
	// misses while the scans run.
	for i := 0; i < racingRows; i += 2 {
		if _, _, err := ix.Lookup(nil, tuple.Int64(int64(i))); err != nil {
			t.Fatalf("warm Lookup: %v", err)
		}
	}

	stop := make(chan struct{})
	var workers sync.WaitGroup
	run := func(fn func(i int) error) {
		workers.Add(1)
		go func() {
			defer workers.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := fn(i); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	// Point lookups: covered ones promote on a hit, full-row ones fill
	// on a miss.
	run(func(i int) error {
		_, _, err := ix.Lookup([]string{"id", "a", "b"}, tuple.Int64(int64(i*7%racingRows)))
		return err
	})
	run(func(i int) error {
		_, _, err := ix.Lookup(nil, tuple.Int64(int64(i*13%racingRows)))
		return err
	})
	// Updates of the cached fields; each id's versions only grow.
	var versions [racingRows]int
	run(func(i int) error {
		id := i * 11 % racingRows
		rid, ok, err := ix.LookupRID(tuple.Int64(int64(id)))
		if err != nil || !ok {
			return fmt.Errorf("LookupRID %d: ok=%v err=%v", id, ok, err)
		}
		versions[id]++
		if _, err := tb.Update(rid, versionRow(id, versions[id])); err != nil {
			return fmt.Errorf("Update %d: %w", id, err)
		}
		return nil
	})
	// Inserts of fresh keys past the end split the last leaves.
	run(func(i int) error {
		if i >= 2000 {
			return nil
		}
		_, err := tb.Insert(versionRow(racingRows+i, 0))
		return err
	})

	check := func(name string, opts ...QueryOption) {
		opts = append(opts, WithProjection("id", "a", "b"))
		for pass := 0; pass < 10; pass++ {
			cur, err := ix.Query(opts...)
			if err != nil {
				t.Errorf("%s: Query: %v", name, err)
				return
			}
			rows := 0
			for cur.Next() {
				rows++
				got := cur.Row()
				v := versionOf(got)
				if v < 0 {
					t.Errorf("%s: served (id %d, a %d, b %d), never a version of that row", name, got[0].Int, got[1].Int, got[2].Int)
					continue
				}
				heap, err := tb.Get(cur.RID())
				if err != nil {
					t.Errorf("%s: heap row of id %d: %v", name, got[0].Int, err)
					continue
				}
				if heap[0].Int != got[0].Int || versionOf(heap) < v {
					t.Errorf("%s: served id %d version %d, heap holds id %d version %d",
						name, got[0].Int, v, heap[0].Int, versionOf(heap))
				}
			}
			if err := cur.Close(); err != nil {
				t.Errorf("%s: %v", name, err)
				return
			}
			if rows < racingRows {
				t.Errorf("%s: served %d rows, want at least %d", name, rows, racingRows)
			}
		}
	}
	var scans sync.WaitGroup
	for name, opts := range map[string][]QueryOption{
		"forward":  nil,
		"reverse":  {WithReverse()},
		"parallel": {WithParallel(3), WithMergeMode(MergeUnordered)},
	} {
		scans.Add(1)
		go func() {
			defer scans.Done()
			check(name, opts...)
		}()
	}
	scans.Wait()
	close(stop)
	workers.Wait()
	if st := ix.Cache().Stats(); st.Hits == 0 || st.SlotProbes == 0 {
		t.Fatalf("cache saw no scan traffic: %+v", st)
	}
}

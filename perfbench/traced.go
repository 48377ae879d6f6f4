package main

import (
	"fmt"
	"math/rand/v2"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/tuple"
	"repro/internal/wal"
	"repro/internal/wire"
)

// Probe sizes of the traced run.
const (
	readProbes   = 200  // direct page reads
	walProbes    = 200  // direct WAL append+sync
	codecInserts = 2000 // ingest insert requests through the wire codec
)

// onFresh sets up a fresh database, runs fn on it and closes it.
func onFresh(cfg config, d *dataset, root string, fn func(in *instance) error) error {
	in, err := setUp(cfg, d, root)
	if err != nil {
		return err
	}
	return joinClose(fn(in), in)
}

// joinClose closes in and returns err, or else the close error.
func joinClose(err error, in *instance) error {
	if cerr := in.close(); err == nil {
		err = cerr
	}
	return err
}

// runTraced reports the per-layer metrics. Each phase gets its own
// fresh database from the same seed:
//
//	A  served, untraced: served latency, allocations per op, and the
//	   ops/s the traced phase is compared with;
//	B  served, traced: a span per client call and per page-file call,
//	   the counter deltas, the tree and heap shape at the end, and a
//	   direct page-read probe of the database file;
//	C  embedded replay of the same op streams on core, traced, then a
//	   one-goroutine pass for allocations and wire-codec cost per row.
//
// A direct WAL append+sync probe at B's record size closes the run,
// and the spans of B and C are written to trace-<workload>.jsonl.
func runTraced(cfg config, d *dataset, workload string, hot []int32, root, dir string, rep *report) error {
	tr := newTracer()
	var a, b, c *phaseResult
	var tree struct {
		fill   float64
		height int
	}
	var heapUtil float64
	var heapPages int
	var allocs, codec ratio
	var readP50 time.Duration

	if err := onFresh(cfg, d, root, func(in *instance) (err error) {
		rep.shape(in, cfg)
		a, err = served(cfg, d, in, workload, hot, nil)
		return err
	}); err != nil {
		return err
	}
	rep.count(a)
	if err := onFresh(cfg, d, root, func(in *instance) (err error) {
		if b, err = served(cfg, d, in, workload, hot, tr); err != nil {
			return err
		}
		ts, err := in.ix.Tree().Stats()
		if err != nil {
			return err
		}
		tree.fill, tree.height = ts.MeanLeafFill, ts.Height
		hs, err := in.tb.Heap().Stats()
		if err != nil {
			return err
		}
		heapUtil, heapPages = hs.MeanUtilization, hs.Pages
		readP50, err = pageReadProbe(in.disk, d.seed, readProbes)
		return err
	}); err != nil {
		return err
	}
	rep.count(b)
	servedSpans := len(tr.spans)
	if err := onFresh(cfg, d, root, func(in *instance) (err error) {
		c = embedded(cfg, d, in, workload, hot, tr)
		allocs, codec, err = codecPass(cfg, d, in, workload, hot)
		return err
	}); err != nil {
		return err
	}
	rep.count(c)
	for _, p := range []*phaseResult{a, b, c} {
		if err := p.firstErr(); err != nil {
			return err
		}
	}

	// Every per-layer latency is over all of the workload's ops, so it
	// means the same on each workload and is never 0: an insert on
	// ingest, a 2,000-row query on scan. The per-kind split of mix is in
	// the span lines.
	all := []opKind{opInsert, opUpdate, opGet, opPoint, opScan}
	rep.add("client.ops_s", a.opsPerSec(), "1/s", a.ops())
	rep.add("client.op_p50_us", us(a.p50()), "us", a.ops())
	rep.add("client.op_p99_us", us(quantile(a.latencies(all...), 0.99)), "us", a.ops())
	var rows int64
	for _, w := range a.workers {
		rows += w.rows
	}
	rep.add("client.rows_s", float64(rows)/a.elapsed.Seconds(), "1/s", rows)

	writes := int64(len(b.latencies(opInsert, opUpdate)))
	ratios := layerRatios(b.delta, b.ops(), writes)
	ratios["core.allocs_per_op"] = layerRatios(a.delta, a.ops(), 0)["core.allocs_per_op"]
	rep.addRatio("wire.bytes_per_op", "B", ratios["wire.bytes_per_op"])
	rep.addRatio("wire.codec_ns_per_row", "ns", codec)
	rep.addRatio("server.ops_per_cycle", "count", ratios["server.ops_per_cycle"])
	// Served minus embedded median of the same op streams, both traced.
	rep.add("server.overhead_us", us(b.p50())-us(c.p50()), "us", b.ops())

	rep.add("core.op_p50_us", us(c.p50()), "us", c.ops())
	var qs core.QueryStats
	var queries int64
	for _, w := range c.workers {
		qs.Add(w.qstats)
		queries += w.queries
	}
	rep.addRatio("core.cache_row_frac", "ratio", per(float64(qs.CacheHits), "rows from cache", float64(qs.Rows), "rows"))
	rep.addRatio("core.heap_reads_per_row", "ratio", per(float64(qs.HeapReads), "heap reads", float64(qs.Rows), "rows"))
	rep.addRatio("core.allocs_per_row", "count", allocs)
	rep.addRatio("core.allocs_per_op", "count", ratios["core.allocs_per_op"])

	rep.addRatio("btree.leaf_fetches_per_query", "count", per(float64(qs.LeafFetches), "leaf fetches", float64(queries), "queries"))
	rep.add("btree.leaf_fill", tree.fill, "ratio", 1)
	rep.add("btree.height", float64(tree.height), "count", 1)

	rep.addRatio("idxcache.hit_rate", "ratio", ratios["idxcache.hit_rate"])
	rep.addRatio("idxcache.page_invalidations_per_write", "count", ratios["idxcache.page_invalidations_per_write"])
	rep.addRatio("idxcache.skipped_no_latch_frac", "ratio", ratios["idxcache.skipped_no_latch_frac"])

	rep.add("heap.utilization", heapUtil, "ratio", int64(heapPages))
	rep.add("heap.pages", float64(heapPages), "count", 1)

	rep.addRatio("buffer.hit_rate", "ratio", ratios["buffer.hit_rate"])
	for _, name := range []string{"buffer.misses_per_op", "buffer.evictions_per_op", "buffer.writebacks_per_op", "storage.reads_per_op", "storage.writes_per_op"} {
		rep.addRatio(name, "count", ratios[name])
	}
	rep.add("storage.read_p50_us", us(readP50), "us", int64(readProbes))
	var storageIv [][2]int64
	for _, s := range tr.spans[:servedSpans] {
		if s.causeUnknown {
			storageIv = append(storageIv, [2]int64{s.start, s.end})
		}
	}
	rep.addRatio("storage.busy_frac", "ratio", per(float64(unionLen(storageIv)), "page-file busy ns", float64(b.delta.elapsed), "measured ns"))

	rep.addRatio("wal.ops_per_sync", "count", ratios["wal.ops_per_sync"])
	rep.addRatio("wal.appends_per_op", "count", ratios["wal.appends_per_op"])
	// A workload that logs nothing (scan) probes at a fixed size, about
	// that of ingest's one-row insert records.
	recBytes := 256
	if b.walRec.den > 0 {
		recBytes = int(b.walRec.value())
	}
	rep.fact("wal probe record: %d bytes (%.0f %s / %.0f %s)", recBytes, b.walRec.num, b.walRec.numName, b.walRec.den, b.walRec.denName)
	walP50, err := walAppendSync(root, recBytes, walProbes)
	if err != nil {
		return err
	}
	rep.add("wal.append_sync_p50_us", us(walP50), "us", walProbes)

	rep.add("trace.overhead_ops_s", b.opsPerSec()-a.opsPerSec(), "1/s", b.ops())
	rep.add("client.failed_frac", float64(rep.failed)/float64(max(rep.attempted, 1)), "ratio", rep.attempted)

	sums := summarize(tr.spans)
	names := make([]string, 0, len(sums))
	for name := range sums {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s := sums[name]
		rep.fact("span %-14s n=%-7d total=%9.1fms self=%9.1fms busy=%9.1fms p50=%8.1fus",
			name, s.count, ms(s.total), ms(s.self), ms(s.covered), us(s.p50))
	}
	path := filepath.Join(dir, "trace-"+workload+".jsonl")
	if err := tr.write(path); err != nil {
		return err
	}
	rep.fact("trace: %d spans written to %s", len(tr.spans), path)
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// codecPass runs after the embedded replay, from one goroutine. On a
// workload with queries it runs them again, first to count heap
// allocations per row delivered, then to time the wire encoding of the
// same rows, paged as the server pages them. Ingest delivers no rows:
// its codec cost is that of its one-row insert requests, and its
// allocations per row are 0/0.
func codecPass(cfg config, d *dataset, in *instance, workload string, hot []int32) (allocs, codec ratio, err error) {
	if workload == "ingest" {
		codec, err = applyCodec(cfg, d)
		return allocs, codec, err
	}
	nq := 100
	if workload == "mix" {
		nq = 2000
	}
	var qs []op
	g := newGenerator(d, workload, 0, cfg.conns, cfg.scanKeys, hot)
	for len(qs) < nq {
		if o, _ := g.next(); o.kind == opPoint || o.kind == opScan {
			qs = append(qs, o)
		}
	}
	ex := &coreExec{tb: in.tb, ix: in.ix}
	buf := make([]covered, 0, cfg.scanKeys)
	var rows int64
	start := mallocs()
	for _, o := range qs {
		if buf, _, err = ex.query(o.id, o.id+int64(2*cfg.scanKeys), o.kind == opPoint, buf[:0]); err != nil {
			return allocs, codec, err
		}
		rows += int64(len(buf))
	}
	allocs = per(float64(mallocs()-start), "heap allocations", float64(rows), "rows")

	var spent time.Duration
	var enc []byte
	codeRows := 0
	flush := func(p *wire.QueryPage) error {
		t0 := time.Now()
		enc = p.Marshal(enc[:0])
		var back wire.QueryPage
		err := back.Unmarshal(enc)
		spent += time.Since(t0)
		codeRows += len(p.Rows)
		p.Rows = p.Rows[:0]
		return err
	}
	for _, o := range qs {
		cur, err := in.tb.Query(coreQueryOpts(o.id, o.id+int64(2*cfg.scanKeys), o.kind == opPoint)...)
		if err != nil {
			return allocs, codec, err
		}
		var page wire.QueryPage
		for cur.Next() {
			page.Rows = append(page.Rows, cur.Row().Clone())
			if len(page.Rows) == server.DefaultPageSize {
				if err := flush(&page); err != nil {
					cur.Close()
					return allocs, codec, err
				}
			}
		}
		page.Last = true
		err = flush(&page)
		cur.Close()
		if err == nil {
			err = cur.Err()
		}
		if err != nil {
			return allocs, codec, err
		}
	}
	codec = per(float64(spent), "codec ns", float64(codeRows), "rows")
	return allocs, codec, nil
}

// applyCodec times ApplyReq Marshal+Unmarshal of the first inserts of
// connection 0's ingest stream, one row per request as the client sends
// them.
func applyCodec(cfg config, d *dataset) (ratio, error) {
	g := newGenerator(d, "ingest", 0, cfg.conns, cfg.scanKeys, nil)
	var reqs []wire.ApplyReq
	for len(reqs) < codecInserts {
		o, ok := g.next()
		if !ok {
			break
		}
		reqs = append(reqs, wire.ApplyReq{Table: tableName, Ops: []wire.Op{{Kind: wire.OpInsert, Row: d.row(o.id, d.a(o.id))}}})
	}
	var enc []byte
	var back wire.ApplyReq
	t0 := time.Now()
	for i := range reqs {
		enc = reqs[i].Marshal(enc[:0])
		if err := back.Unmarshal(enc); err != nil {
			return ratio{}, err
		}
	}
	return per(float64(time.Since(t0)), "codec ns", float64(len(reqs)), "rows"), nil
}

// pageReadProbe times n direct reads of seeded random pages of the
// database file through the page file the engine uses, past the
// buffer pool and the timing wrapper: the floor of a pool miss.
func pageReadProbe(disk *timingDisk, seed uint64, n int) (time.Duration, error) {
	pages := disk.NumPages()
	if pages < 2 {
		return 0, fmt.Errorf("page read probe: database has %d pages", pages)
	}
	r := rand.New(rand.NewPCG(seed, 0x72656164))
	buf := make([]byte, disk.PageSize())
	durs := make([]time.Duration, 0, n)
	for range n {
		id := storage.PageID(1 + r.Uint64N(pages-1)) // page 0 is reserved
		t0 := time.Now()
		if err := disk.DiskManager.ReadPage(id, buf); err != nil {
			return 0, err
		}
		durs = append(durs, time.Since(t0))
	}
	return quantile(durs, 0.5), nil
}

func coreQueryOpts(lo, hi int64, point bool) []core.QueryOption {
	opts := []core.QueryOption{core.WithIndex(indexName), core.WithProjection(coveredFields...)}
	if point {
		return append(opts, core.WithPrefix(tuple.Int64(lo)))
	}
	return append(opts, core.WithKeyRange([]tuple.Value{tuple.Int64(lo)}, []tuple.Value{tuple.Int64(hi)}))
}

// walAppendSync times n direct appends of one record of recBytes bytes,
// each followed by an fsync, on a scratch log: the floor of a durable
// write at the workload's record size.
func walAppendSync(dir string, recBytes, n int) (time.Duration, error) {
	l, err := wal.Open(filepath.Join(dir, "probe.wal"))
	if err != nil {
		return 0, err
	}
	payload := make([]byte, max(recBytes-17, 1)) // 17 bytes of frame header per record
	durs := make([]time.Duration, 0, n)
	for range n {
		t0 := time.Now()
		if _, err := l.Append(1, payload); err != nil {
			l.Close()
			return 0, err
		}
		if err := l.Sync(); err != nil {
			l.Close()
			return 0, err
		}
		durs = append(durs, time.Since(t0))
	}
	return quantile(durs, 0.5), l.Close()
}

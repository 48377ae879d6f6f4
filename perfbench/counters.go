package main

import (
	"runtime/metrics"
	"sync/atomic"
	"time"

	"repro/internal/buffer"
	"repro/internal/idxcache"
	"repro/internal/server"
	"repro/internal/wal"
)

// counters is one reading of every layer counter the benchmark can see
// from outside the engine. Diffing two readings taken around the
// measured interval gives the work each layer did in it.
type counters struct {
	at      time.Time
	elapsed time.Duration // set by since
	pool    buffer.Stats
	cache   idxcache.Stats
	wal     wal.Stats
	server  server.StatsSnapshot
	reads   int64 // page-file reads, writes and syncs
	writes  int64
	syncs   int64
	wireIn  int64 // bytes the server read and wrote on client connections
	wireOut int64
	mallocs uint64 // heap objects allocated by the whole process
}

// probe names what snapshot reads. srv and wire are nil outside a
// served run.
type probe struct {
	in   *instance
	srv  *server.Server
	wire *[2]atomic.Int64 // bytes in, bytes out
}

// mallocs is the number of heap objects the process has allocated.
func mallocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// snapshot reads every counter once.
func snapshot(p probe) counters {
	c := counters{
		at:      time.Now(),
		pool:    p.in.eng.Pool().Stats(),
		cache:   p.in.ix.Cache().Stats(),
		wal:     p.in.eng.WALStats(),
		reads:   p.in.disk.reads.Load(),
		writes:  p.in.disk.writes.Load(),
		syncs:   p.in.disk.syncs.Load(),
		mallocs: mallocs(),
	}
	if p.srv != nil {
		c.server = p.srv.Stats()
	}
	if p.wire != nil {
		c.wireIn, c.wireOut = p.wire[0].Load(), p.wire[1].Load()
	}
	return c
}

// since returns the work done between an earlier reading and c. The
// WAL's Bytes is a file size, which a checkpoint truncates, so it is
// kept as read, not diffed.
func (c counters) since(prev counters) counters {
	d := c
	d.elapsed = c.at.Sub(prev.at)
	d.pool = buffer.Stats{
		Hits:       c.pool.Hits - prev.pool.Hits,
		Misses:     c.pool.Misses - prev.pool.Misses,
		Evictions:  c.pool.Evictions - prev.pool.Evictions,
		Writebacks: c.pool.Writebacks - prev.pool.Writebacks,
	}
	d.cache = idxcache.Stats{
		Lookups:           c.cache.Lookups - prev.cache.Lookups,
		Hits:              c.cache.Hits - prev.cache.Hits,
		Misses:            c.cache.Misses - prev.cache.Misses,
		Inserts:           c.cache.Inserts - prev.cache.Inserts,
		Evictions:         c.cache.Evictions - prev.cache.Evictions,
		Swaps:             c.cache.Swaps - prev.cache.Swaps,
		PageInvalidations: c.cache.PageInvalidations - prev.cache.PageInvalidations,
		FullInvalidations: c.cache.FullInvalidations - prev.cache.FullInvalidations,
		SkippedNoLatch:    c.cache.SkippedNoLatch - prev.cache.SkippedNoLatch,
	}
	d.wal.Appends -= prev.wal.Appends
	d.wal.Syncs -= prev.wal.Syncs
	d.server.Conns -= prev.server.Conns
	d.server.Requests -= prev.server.Requests
	d.server.CoalescedCycles -= prev.server.CoalescedCycles
	d.server.CoalescedOps -= prev.server.CoalescedOps
	d.reads -= prev.reads
	d.writes -= prev.writes
	d.syncs -= prev.syncs
	d.wireIn -= prev.wireIn
	d.wireOut -= prev.wireOut
	d.mallocs -= prev.mallocs
	return d
}

// ratio is a derived metric kept with its base, so the report can show
// what it was computed from.
type ratio struct {
	num, den float64
	numName  string
	denName  string
}

func (r ratio) value() float64 {
	if r.den == 0 {
		return 0
	}
	return r.num / r.den
}

func per(num float64, numName string, den float64, denName string) ratio {
	return ratio{num: num, den: den, numName: numName, denName: denName}
}

// layerRatios derives the per-layer ratios of a counter delta over ops
// completed client ops of which writes were writes.
func layerRatios(d counters, ops, writes int64) map[string]ratio {
	fetches := float64(d.pool.Hits + d.pool.Misses)
	o := float64(ops)
	return map[string]ratio{
		"wire.bytes_per_op":                     per(float64(d.wireIn+d.wireOut), "wire bytes", o, "ops"),
		"server.ops_per_cycle":                  per(float64(d.server.CoalescedOps), "coalesced ops", float64(d.server.CoalescedCycles), "coalescer cycles"),
		"core.allocs_per_op":                    per(float64(d.mallocs), "heap allocations", o, "ops"),
		"idxcache.hit_rate":                     per(float64(d.cache.Hits), "cache hits", float64(d.cache.Lookups), "cache lookups"),
		"idxcache.page_invalidations_per_write": per(float64(d.cache.PageInvalidations), "page invalidations", float64(writes), "write ops"),
		"idxcache.skipped_no_latch_frac":        per(float64(d.cache.SkippedNoLatch), "skipped cache writes", float64(d.cache.SkippedNoLatch+d.cache.Inserts), "cache write attempts"),
		"buffer.hit_rate":                       per(float64(d.pool.Hits), "pool hits", fetches, "pool fetches"),
		"buffer.misses_per_op":                  per(float64(d.pool.Misses), "pool misses", o, "ops"),
		"buffer.evictions_per_op":               per(float64(d.pool.Evictions), "evictions", o, "ops"),
		"buffer.writebacks_per_op":              per(float64(d.pool.Writebacks), "writebacks", o, "ops"),
		"storage.reads_per_op":                  per(float64(d.reads), "page reads", o, "ops"),
		"storage.writes_per_op":                 per(float64(d.writes), "page writes", o, "ops"),
		"wal.ops_per_sync":                      per(float64(writes), "write ops", float64(d.wal.Syncs), "WAL fsyncs"),
		"wal.appends_per_op":                    per(float64(d.wal.Appends), "WAL appends", float64(writes), "write ops"),
	}
}

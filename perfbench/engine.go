package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/tuple"
)

// config fixes the data set's shape and the run's phases.
type config struct {
	rows       int     // preloaded rows
	poolPages  int     // buffer pool capacity, 8 KiB pages
	fillFactor float64 // index bulk-build fill factor; leaves the free space the cache fills
	scanKeys   int     // keys per scan query
	conns      int     // client connections, one closed-loop goroutine each
	setups     int     // set-ups per untraced run; setup_s is their median
	warm       time.Duration
	measure    time.Duration
	loadBatch  int // rows per preload Apply
}

func defaultConfig() config {
	return config{
		rows:       200_000,
		poolPages:  1500,
		fillFactor: 0.5,
		scanKeys:   2000,
		conns:      2,
		setups:     3,
		warm:       2 * time.Second, // also lets the heap regrow after set-up
		measure:    10 * time.Second,
		loadBatch:  5000,
	}
}

// timingDisk wraps the engine's page file: it counts every page read,
// page write and sync, and records a timed span for each when a tracer
// is attached. The engine calls it from its own goroutines, so
// its spans have no parent.
type timingDisk struct {
	storage.DiskManager
	tr atomic.Pointer[tracer] // nil: no spans

	reads, writes, syncs atomic.Int64
}

func (d *timingDisk) timed(name string, n *atomic.Int64, fn func() error) error {
	n.Add(1)
	tr := d.tr.Load()
	if tr == nil {
		return fn()
	}
	t0 := time.Now()
	err := fn()
	tr.unparented(name, t0, time.Now())
	return err
}

func (d *timingDisk) ReadPage(id storage.PageID, buf []byte) error {
	return d.timed("storage.read", &d.reads, func() error { return d.DiskManager.ReadPage(id, buf) })
}

func (d *timingDisk) WritePage(id storage.PageID, buf []byte) error {
	return d.timed("storage.write", &d.writes, func() error { return d.DiskManager.WritePage(id, buf) })
}

func (d *timingDisk) Sync() error {
	return d.timed("storage.sync", &d.syncs, d.DiskManager.Sync)
}

// countingListener counts the bytes that pass through every connection
// it accepts, in both directions.
type countingListener struct {
	net.Listener
	in, out *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, in: l.in, out: l.out}, nil
}

type countingConn struct {
	net.Conn
	in, out *atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.in.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.out.Add(int64(n))
	return n, err
}

// instance is one set-up database: a WAL engine over a timing disk,
// the preloaded table and its cached index.
type instance struct {
	dir       string
	path      string
	eng       *core.Engine
	disk      *timingDisk
	tb        *core.Table
	ix        *core.Index
	rids      []uint64 // preloaded rows' packed RIDs, by row index
	logical   int64    // user bytes of the preloaded rows
	setup     time.Duration
	warmed    int
	idxPages  int
	heapPages int
}

func openEngine(path string, poolPages int) (*core.Engine, *timingDisk, error) {
	fd, err := storage.NewFileDisk(path, storage.DefaultPageSize)
	if err != nil {
		return nil, nil, err
	}
	disk := &timingDisk{DiskManager: fd}
	eng, err := core.NewEngine(core.Options{
		Path:            path,
		Disk:            disk,
		BufferPoolPages: poolPages,
		WAL:             true,
		SyncPolicy:      core.SyncGroupCommit,
	})
	if err != nil {
		return nil, nil, err
	}
	return eng, disk, nil
}

// setUp builds a fresh database in a new directory under root. The
// timed part is what a user of the engine would pay: open, preload,
// index build, cache warm-up and a checkpoint. The shape guard runs
// after it, and fails the set-up unless index pages < pool pages <
// heap pages and the warmed cache covers at least 99% of the rows.
func setUp(cfg config, d *dataset, root string) (in *instance, err error) {
	dir, err := os.MkdirTemp(root, "db-")
	if err != nil {
		return nil, err
	}
	in = &instance{dir: dir, path: filepath.Join(dir, "db")}
	defer func() {
		if err != nil {
			in.close()
			in = nil
		}
	}()
	start := time.Now()
	in.eng, in.disk, err = openEngine(in.path, cfg.poolPages)
	if err != nil {
		return in, err
	}
	schema, err := tuple.NewSchema(schemaFields...)
	if err != nil {
		return in, err
	}
	if in.tb, err = in.eng.CreateTable(tableName, schema); err != nil {
		return in, err
	}
	in.rids = make([]uint64, 0, d.rows)
	for lo := 0; lo < d.rows; lo += cfg.loadBatch {
		var b core.Batch
		for i := lo; i < min(lo+cfg.loadBatch, d.rows); i++ {
			id := int64(2 * i)
			b.Insert(d.row(id, d.a(id)))
			in.logical += d.logicalBytes(id)
		}
		res, err := in.tb.Apply(&b, core.WithResultRIDs())
		if err != nil {
			return in, fmt.Errorf("preload: %w", err)
		}
		for _, r := range res.RIDs {
			in.rids = append(in.rids, r.Pack())
		}
	}
	// A clean pool before the index build: under no-steal the build's
	// dirty leaves then stay resident, with their warmed cache, until
	// the checkpoint below writes them out.
	if err := in.eng.Checkpoint(); err != nil {
		return in, err
	}
	in.ix, err = in.tb.CreateIndex(indexName, []string{"id"},
		core.WithCache("a", "b"), core.WithFillFactor(cfg.fillFactor))
	if err != nil {
		return in, err
	}
	if in.warmed, err = in.ix.WarmCache(); err != nil {
		return in, err
	}
	if err := in.eng.Checkpoint(); err != nil {
		return in, err
	}
	in.setup = time.Since(start)

	ts, err := in.ix.Tree().Stats()
	if err != nil {
		return in, err
	}
	in.idxPages = ts.Pages
	in.heapPages = len(in.tb.Heap().Pages())
	if !(in.idxPages < cfg.poolPages && cfg.poolPages < in.heapPages) {
		return in, fmt.Errorf("shape guard: want index pages %d < pool pages %d < heap pages %d",
			in.idxPages, cfg.poolPages, in.heapPages)
	}
	if in.warmed*100 < d.rows*99 {
		return in, fmt.Errorf("shape guard: warmed cache covers %d of %d rows, want ≥99%%", in.warmed, d.rows)
	}
	return in, nil
}

// dbBytes is the size of the main database file.
func (in *instance) dbBytes() (int64, error) {
	st, err := os.Stat(in.path)
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// close closes the engine, if open, and removes the database directory.
func (in *instance) close() error {
	var err error
	if in.eng != nil {
		err = in.eng.Close()
		in.eng = nil
	}
	return errors.Join(err, os.RemoveAll(in.dir))
}

// setUpMany sets up n databases one after another, keeping the last,
// and returns it with every set-up time.
func setUpMany(cfg config, d *dataset, root string, n int) (*instance, []time.Duration, error) {
	var times []time.Duration
	for i := 0; ; i++ {
		in, err := setUp(cfg, d, root)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, in.setup)
		if i == n-1 {
			return in, times, nil
		}
		if err := in.close(); err != nil {
			return nil, nil, err
		}
	}
}

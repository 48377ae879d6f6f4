// Package server is nblb's network frontend: a pipelined
// length-prefixed binary protocol (internal/wire) over TCP, an
// HTTP/JSON fallback for curl-ability, and — the load-bearing piece —
// a cross-connection write coalescer that drains many connections'
// small batches into shared core.Batches so thousands of writers ride
// the leaf-grouped ApplyRun path and share one WAL group commit.
//
// Concurrency model, per connection: one reader goroutine decodes
// frames and spawns capped handler goroutines (so a pipelined
// connection completes out of order); one writer goroutine drains a
// response channel through a bufio.Writer, flushing only when the
// channel runs empty, which batches many responses into one syscall.
// Handlers never touch the socket — they marshal complete frames and
// hand them to the writer, so interleaved Query pages and Apply acks
// cannot tear each other.
package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/storage"
	"repro/internal/tuple"
	"repro/internal/wire"
)

// Defaults for Config zero values.
const (
	DefaultMaxOps      = 128
	DefaultMaxWait     = 200 * time.Microsecond
	DefaultPageSize    = 256
	DefaultMaxInflight = 64
)

// CoalesceConfig tunes the cross-connection write coalescer.
type CoalesceConfig struct {
	// Disabled routes every ApplyReq straight to Table.Apply on its
	// handler goroutine (each request pays its own group commit).
	Disabled bool
	// MaxOps caps the ops staged into one shared batch (default 128).
	MaxOps int
	// MaxWait bounds how long the leader waits for more ops after the
	// first arrives (default 200µs).
	MaxWait time.Duration
}

// Config configures a Server.
type Config struct {
	// Engine is the embedded engine to serve. Required; the server
	// does not open or close it.
	Engine *core.Engine
	// Coalesce tunes cross-connection write coalescing.
	Coalesce CoalesceConfig
	// PageSize is the default rows per query page (default 256).
	PageSize int
	// MaxInflight caps concurrently executing requests per connection
	// (default 64); further pipelined frames wait in the kernel buffer.
	MaxInflight int
}

// Stats are the server's monotonic counters (atomic; read via
// Server.Stats or the TStats request).
type Stats struct {
	Conns           atomic.Int64 // connections accepted
	Requests        atomic.Int64 // frames dispatched
	CoalescedCycles atomic.Int64 // coalescer drain cycles (shared batches)
	CoalescedOps    atomic.Int64 // ops applied through shared batches
}

// StatsSnapshot is the JSON shape of TStats / GET /v1/stats.
type StatsSnapshot struct {
	Conns           int64    `json:"conns"`
	Requests        int64    `json:"requests"`
	CoalescedCycles int64    `json:"coalesced_cycles"`
	CoalescedOps    int64    `json:"coalesced_ops"`
	WALAppends      int64    `json:"wal_appends"`
	WALSyncs        int64    `json:"wal_syncs"`
	WALBytes        int64    `json:"wal_bytes"`
	Tables          []string `json:"tables"`
}

// Server serves an engine over TCP (binary protocol) and optionally
// HTTP. Create with New, start with Serve/ListenAndServe, stop with
// Shutdown.
type Server struct {
	cfg   Config
	eng   *core.Engine
	stats Stats

	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	conns     map[*conn]struct{}
	coal      map[string]*coalescer
	httpSrvs  []*http.Server
	closed    bool

	wg sync.WaitGroup // accept loops + connections
}

// New creates a Server over an open engine.
func New(cfg Config) (*Server, error) {
	if cfg.Engine == nil {
		return nil, errors.New("server: Config.Engine is required")
	}
	if cfg.Coalesce.MaxOps <= 0 {
		cfg.Coalesce.MaxOps = DefaultMaxOps
	}
	if cfg.Coalesce.MaxWait <= 0 {
		cfg.Coalesce.MaxWait = DefaultMaxWait
	}
	if cfg.PageSize <= 0 {
		cfg.PageSize = DefaultPageSize
	}
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = DefaultMaxInflight
	}
	return &Server{
		cfg:       cfg,
		eng:       cfg.Engine,
		listeners: make(map[net.Listener]struct{}),
		conns:     make(map[*conn]struct{}),
		coal:      make(map[string]*coalescer),
	}, nil
}

// Stats returns a point-in-time snapshot of server + WAL counters.
func (s *Server) Stats() StatsSnapshot {
	w := s.eng.WALStats()
	return StatsSnapshot{
		Conns:           s.stats.Conns.Load(),
		Requests:        s.stats.Requests.Load(),
		CoalescedCycles: s.stats.CoalescedCycles.Load(),
		CoalescedOps:    s.stats.CoalescedOps.Load(),
		WALAppends:      w.Appends,
		WALSyncs:        w.Syncs,
		WALBytes:        w.Bytes,
		Tables:          s.eng.Tables(),
	}
}

// ListenAndServe listens on addr (TCP) and serves until Shutdown.
func (s *Server) ListenAndServe(addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(l)
}

// Serve accepts connections on l until the listener is closed (by
// Shutdown). It returns nil after a clean shutdown.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		l.Close()
		return errors.New("server: already shut down")
	}
	s.listeners[l] = struct{}{}
	s.wg.Add(1)
	s.mu.Unlock()
	defer s.wg.Done()
	for {
		nc, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			delete(s.listeners, l)
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		c := newConn(s, nc)
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			nc.Close()
			return nil
		}
		s.conns[c] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		s.stats.Conns.Add(1)
		go func() {
			defer s.wg.Done()
			c.serve()
			s.mu.Lock()
			delete(s.conns, c)
			s.mu.Unlock()
		}()
	}
}

// Shutdown drains the server gracefully: stop accepting, close the
// read side of every connection (in-flight requests complete and
// their responses flush), drain and stop the coalescers, then run a
// final Engine.Checkpoint so every acked write is in the data file
// regardless of sync policy. If ctx expires first, remaining
// connections are severed, but the coalescer drain and checkpoint
// still run — acked ops are never dropped by a timeout.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ls := make([]net.Listener, 0, len(s.listeners))
	for l := range s.listeners {
		ls = append(ls, l)
	}
	conns := make([]*conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	https := s.httpSrvs
	s.mu.Unlock()

	for _, l := range ls {
		l.Close()
	}
	for _, hs := range https {
		hs.Shutdown(ctx)
	}
	for _, c := range conns {
		c.closeRead()
	}

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var ctxErr error
	select {
	case <-done:
	case <-ctx.Done():
		ctxErr = ctx.Err()
		s.mu.Lock()
		for c := range s.conns {
			c.nc.Close()
		}
		s.mu.Unlock()
		<-done
	}

	s.mu.Lock()
	coal := s.coal
	s.coal = make(map[string]*coalescer)
	s.mu.Unlock()
	for _, c := range coal {
		c.close()
	}
	if err := s.eng.Checkpoint(); err != nil {
		return err
	}
	return ctxErr
}

// applyOps routes a decoded batch to the table's coalescer (or
// directly when coalescing is disabled) and waits for its attributed
// result.
func (s *Server) applyOps(table string, ops []wire.Op) (wire.ApplyResp, error) {
	tb, err := s.eng.Table(table)
	if err != nil {
		return wire.ApplyResp{}, err
	}
	if len(ops) == 0 {
		return wire.ApplyResp{}, errors.New("server: empty batch")
	}
	if s.cfg.Coalesce.Disabled {
		var b core.Batch
		for _, op := range ops {
			switch op.Kind {
			case wire.OpInsert:
				b.Insert(op.Row)
			case wire.OpUpdate:
				b.Update(storage.UnpackRID(op.RID), op.Row)
			case wire.OpDelete:
				b.Delete(storage.UnpackRID(op.RID))
			}
		}
		res, err := tb.Apply(&b, core.WithErrorIsolation(), core.WithResultRIDs())
		return sliceResult(&res, err, 0, len(ops)), nil
	}
	return <-s.coalescerFor(table, tb).enqueue(ops), nil
}

func (s *Server) coalescerFor(name string, tb *core.Table) *coalescer {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.coal[name]
	if !ok {
		c = newCoalescer(tb, s.cfg.Coalesce.MaxOps, s.cfg.Coalesce.MaxWait, &s.stats)
		s.coal[name] = c
	}
	return c
}

// --- connection ---

type conn struct {
	s    *Server
	nc   net.Conn
	outc chan []byte
	sem  chan struct{}
	hwg  sync.WaitGroup // in-flight handlers
	wwg  sync.WaitGroup // writer goroutine

	// Open snapshot transactions, scoped to this connection. A dropped
	// connection aborts them all (serve's epilogue), so an abandoned
	// transaction can never pin the GC watermark forever.
	txnMu  sync.Mutex
	txns   map[uint64]*connTxn
	txnSeq uint64
}

// connTxn wraps a core transaction with the server-side cursor
// accounting the engine cannot do itself: core documents that cursors
// must be drained before Commit/Abort (finishing releases the snapshot
// that protects their versions from GC), but a pipelined client can
// race TTxnCommit/TTxnAbort against an in-flight snapshot Query. The
// stream counter turns that race into a wait — finishTxn blocks until
// every streaming cursor has drained, so the snapshot stays pinned for
// exactly as long as a cursor can still visit its versions.
type connTxn struct {
	txn *core.Txn

	mu       sync.Mutex
	finished bool
	streams  sync.WaitGroup
}

// acquireStream registers one streaming cursor; it fails once the
// transaction has been handed to commit/abort. Callers must release
// with streams.Done after the cursor is closed.
func (ct *connTxn) acquireStream() bool {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	if ct.finished {
		return false
	}
	ct.streams.Add(1)
	return true
}

// finish marks the transaction closed to new cursors and waits for the
// ones still streaming, then yields the core transaction.
func (ct *connTxn) finish() *core.Txn {
	ct.mu.Lock()
	ct.finished = true
	ct.mu.Unlock()
	ct.streams.Wait()
	return ct.txn
}

func newConn(s *Server, nc net.Conn) *conn {
	return &conn{
		s:    s,
		nc:   nc,
		outc: make(chan []byte, 256),
		sem:  make(chan struct{}, s.cfg.MaxInflight),
	}
}

// closeRead unblocks the reader loop without severing the write side,
// so in-flight responses still reach the client during shutdown.
func (c *conn) closeRead() {
	type readCloser interface{ CloseRead() error }
	if rc, ok := c.nc.(readCloser); ok {
		rc.CloseRead()
		return
	}
	c.nc.SetReadDeadline(time.Now())
}

func (c *conn) serve() {
	c.wwg.Add(1)
	go c.writeLoop()
	br := bufio.NewReaderSize(c.nc, 64<<10)
	var scratch []byte
	for {
		f, buf, err := wire.ReadFrame(br, scratch)
		scratch = buf
		if err != nil {
			break
		}
		c.s.stats.Requests.Add(1)
		// dispatch decodes the payload inline (decoding copies all
		// bytes out), so scratch is free for the next frame.
		c.dispatch(f)
	}
	c.hwg.Wait()
	// All handlers have returned, so no cursor can still be streaming:
	// finish() never waits here.
	c.txnMu.Lock()
	for id, ct := range c.txns {
		ct.finish().Abort()
		delete(c.txns, id)
	}
	c.txnMu.Unlock()
	close(c.outc)
	c.wwg.Wait()
	c.nc.Close()
}

// beginTxn opens a transaction and registers it under a fresh
// connection-local id.
func (c *conn) beginTxn() (uint64, *core.Txn) {
	txn := c.s.eng.Begin()
	c.txnMu.Lock()
	c.txnSeq++
	id := c.txnSeq
	if c.txns == nil {
		c.txns = make(map[uint64]*connTxn)
	}
	c.txns[id] = &connTxn{txn: txn}
	c.txnMu.Unlock()
	return id, txn
}

// txn resolves a connection-local transaction id.
func (c *conn) txn(id uint64) (*connTxn, error) {
	c.txnMu.Lock()
	ct := c.txns[id]
	c.txnMu.Unlock()
	if ct == nil {
		return nil, fmt.Errorf("server: unknown transaction %d", id)
	}
	return ct, nil
}

// finishTxn removes a transaction from the registry for commit/abort,
// waiting out any cursor still streaming its snapshot.
func (c *conn) finishTxn(id uint64) (*core.Txn, error) {
	c.txnMu.Lock()
	ct := c.txns[id]
	delete(c.txns, id)
	c.txnMu.Unlock()
	if ct == nil {
		return nil, fmt.Errorf("server: unknown transaction %d", id)
	}
	return ct.finish(), nil
}

func (c *conn) writeLoop() {
	defer c.wwg.Done()
	bw := bufio.NewWriterSize(c.nc, 64<<10)
	var werr error
	for buf := range c.outc {
		if werr != nil {
			continue // drain so handlers never block on a dead socket
		}
		if _, werr = bw.Write(buf); werr != nil {
			continue
		}
		if len(c.outc) == 0 {
			werr = bw.Flush()
		}
	}
	if werr == nil {
		bw.Flush()
	}
}

// send queues one complete response frame for the writer.
func (c *conn) send(reqID uint64, typ uint8, payload []byte) {
	c.outc <- wire.AppendFrame(nil, reqID, typ, payload)
}

func (c *conn) sendErr(reqID uint64, err error) {
	m := wire.ErrResp{Msg: err.Error(), Code: errCode(err)}
	c.send(reqID, wire.TErr, m.Marshal(nil))
}

// errCode classifies an error for ErrResp.Code so clients dispatch on
// the code, never on message text.
func errCode(err error) uint64 {
	if errors.Is(err, core.ErrTxnConflict) {
		return wire.ErrCodeTxnConflict
	}
	return wire.ErrCodeGeneric
}

// spawn runs fn on a handler goroutine, capped by the per-connection
// semaphore. The semaphore is acquired on the reader loop, so a
// connection that pipelines past MaxInflight backpressures in the
// kernel instead of being disconnected.
func (c *conn) spawn(fn func()) {
	c.sem <- struct{}{}
	c.hwg.Add(1)
	go func() {
		defer func() {
			<-c.sem
			c.hwg.Done()
		}()
		fn()
	}()
}

func (c *conn) dispatch(f wire.Frame) {
	id := f.ReqID
	switch f.Type {
	case wire.TPing:
		c.send(id, wire.TOK, nil)
	case wire.TApply:
		var m wire.ApplyReq
		if err := m.Unmarshal(f.Payload); err != nil {
			c.sendErr(id, err)
			return
		}
		c.spawn(func() { c.handleApply(id, &m) })
	case wire.TGet:
		var m wire.GetReq
		if err := m.Unmarshal(f.Payload); err != nil {
			c.sendErr(id, err)
			return
		}
		c.spawn(func() { c.handleGet(id, &m) })
	case wire.TQuery:
		var m wire.QueryReq
		if err := m.Unmarshal(f.Payload); err != nil {
			c.sendErr(id, err)
			return
		}
		c.spawn(func() { c.handleQuery(id, &m) })
	case wire.TCreateTable:
		var m wire.CreateTableReq
		if err := m.Unmarshal(f.Payload); err != nil {
			c.sendErr(id, err)
			return
		}
		c.spawn(func() { c.handleCreateTable(id, &m) })
	case wire.TCreateIndex:
		var m wire.CreateIndexReq
		if err := m.Unmarshal(f.Payload); err != nil {
			c.sendErr(id, err)
			return
		}
		c.spawn(func() { c.handleCreateIndex(id, &m) })
	case wire.TCheckpoint:
		c.spawn(func() {
			if err := c.s.eng.Checkpoint(); err != nil {
				c.sendErr(id, err)
				return
			}
			c.send(id, wire.TOK, nil)
		})
	case wire.TTxnBegin:
		c.spawn(func() {
			txnID, txn := c.beginTxn()
			m := wire.TxnBeginResp{TxnID: txnID, StartTS: txn.StartTS()}
			c.send(id, wire.TTxnBeginResp, m.Marshal(nil))
		})
	case wire.TTxnCommit:
		var m wire.TxnFinishReq
		if err := m.Unmarshal(f.Payload); err != nil {
			c.sendErr(id, err)
			return
		}
		c.spawn(func() {
			txn, err := c.finishTxn(m.TxnID)
			if err == nil {
				err = txn.Commit()
			}
			if err != nil {
				c.sendErr(id, err)
				return
			}
			c.send(id, wire.TOK, nil)
		})
	case wire.TTxnAbort:
		var m wire.TxnFinishReq
		if err := m.Unmarshal(f.Payload); err != nil {
			c.sendErr(id, err)
			return
		}
		c.spawn(func() {
			txn, err := c.finishTxn(m.TxnID)
			if err != nil {
				c.sendErr(id, err)
				return
			}
			txn.Abort()
			c.send(id, wire.TOK, nil)
		})
	case wire.TStats:
		c.spawn(func() {
			doc, err := json.Marshal(c.s.Stats())
			if err != nil {
				c.sendErr(id, err)
				return
			}
			m := wire.StatsResp{JSON: doc}
			c.send(id, wire.TStatsResp, m.Marshal(nil))
		})
	default:
		c.sendErr(id, fmt.Errorf("server: unknown frame type %d", f.Type))
	}
}

func (c *conn) handleApply(id uint64, m *wire.ApplyReq) {
	if m.TxnID != 0 {
		c.handleTxnApply(id, m)
		return
	}
	resp, err := c.s.applyOps(m.Table, m.Ops)
	if err != nil {
		c.sendErr(id, err)
		return
	}
	c.send(id, wire.TApplyResp, resp.Marshal(nil))
}

// handleTxnApply stages ops into an open transaction. Staging bypasses
// the write coalescer deliberately: a transaction's writes must not be
// folded into other connections' batches — they become durable only at
// the transaction's own commit record.
func (c *conn) handleTxnApply(id uint64, m *wire.ApplyReq) {
	ct, err := c.txn(m.TxnID)
	if err != nil {
		c.sendErr(id, err)
		return
	}
	tb, err := c.s.eng.Table(m.Table)
	if err != nil {
		c.sendErr(id, err)
		return
	}
	if len(m.Ops) == 0 {
		c.sendErr(id, errors.New("server: empty batch"))
		return
	}
	var b core.Batch
	for _, op := range m.Ops {
		switch op.Kind {
		case wire.OpInsert:
			b.Insert(op.Row)
		case wire.OpUpdate:
			b.Update(storage.UnpackRID(op.RID), op.Row)
		case wire.OpDelete:
			b.Delete(storage.UnpackRID(op.RID))
		}
	}
	res, aerr := ct.txn.Apply(tb, &b)
	// Staged writes have no RIDs yet (rows land in the heap at commit);
	// the response reports per-op acceptance only.
	resp := sliceResult(&res, aerr, 0, len(m.Ops))
	c.send(id, wire.TApplyResp, resp.Marshal(nil))
}

func (c *conn) handleGet(id uint64, m *wire.GetReq) {
	ix, err := c.s.lookupIndex(m.Table, m.Index)
	if err != nil {
		c.sendErr(id, err)
		return
	}
	row, lres, err := ix.Lookup(nil, m.Key...)
	if err != nil {
		c.sendErr(id, err)
		return
	}
	resp := wire.GetResp{Found: lres.Found}
	if lres.Found {
		resp.RID = lres.RID.Pack()
		resp.Row = row
	}
	c.send(id, wire.TGetResp, resp.Marshal(nil))
}

func (c *conn) handleQuery(id uint64, m *wire.QueryReq) {
	cur, release, err := c.openCursor(m)
	if err != nil {
		c.sendErr(id, err)
		return
	}
	defer release() // runs after Close: the snapshot stays pinned until then
	defer cur.Close()
	pageSize := int(m.PageSize)
	if pageSize <= 0 {
		pageSize = c.s.cfg.PageSize
	}
	// Rows go straight from cursor scratch into page bytes; each full
	// page leaves as one frame.
	var enc wire.PageEncoder
	for cur.Next() {
		enc.Append(cur.Row())
		if m.WithRIDs {
			enc.AppendRID(cur.RID().Pack())
		}
		if enc.Rows() >= pageSize {
			c.outc <- enc.Frame(id, false)
		}
	}
	if err := cur.Err(); err != nil {
		c.sendErr(id, err)
		return
	}
	c.outc <- enc.Frame(id, true)
}

func (c *conn) handleCreateTable(id uint64, m *wire.CreateTableReq) {
	schema, err := tuple.NewSchema(m.Fields...)
	if err != nil {
		c.sendErr(id, err)
		return
	}
	if _, err := c.s.eng.CreateTable(m.Table, schema); err != nil {
		c.sendErr(id, err)
		return
	}
	c.send(id, wire.TOK, nil)
}

func (c *conn) handleCreateIndex(id uint64, m *wire.CreateIndexReq) {
	tb, err := c.s.eng.Table(m.Table)
	if err != nil {
		c.sendErr(id, err)
		return
	}
	var opts []core.IndexOption
	if !m.Unique {
		opts = append(opts, core.NonUnique())
	}
	if _, err := tb.CreateIndex(m.Index, m.Fields, opts...); err != nil {
		c.sendErr(id, err)
		return
	}
	c.send(id, wire.TOK, nil)
}

// --- shared helpers (also used by the HTTP listener) ---

func (s *Server) lookupIndex(table, index string) (*core.Index, error) {
	tb, err := s.eng.Table(table)
	if err != nil {
		return nil, err
	}
	if index == "" {
		return nil, errors.New("server: index name required for get")
	}
	return tb.Index(index)
}

func (s *Server) openCursor(m *wire.QueryReq) (*core.Cursor, error) {
	tb, err := s.eng.Table(m.Table)
	if err != nil {
		return nil, err
	}
	return tb.Query(queryOpts(m)...)
}

// openCursor resolves a query against the connection: a TxnID routes
// the scan through that transaction's snapshot — it reads the Begin
// snapshot and excludes the transaction's own staged writes (core.Txn
// has no read-your-own-writes) — everything else falls through to the
// shared latest-read path, including rows that arrived via other
// connections' coalesced batches, which become visible to snapshots
// begun after their group commit. A transactional cursor registers
// with the connTxn so commit/abort waits out its stream; the returned
// release must be called after the cursor is closed.
func (c *conn) openCursor(m *wire.QueryReq) (*core.Cursor, func(), error) {
	if m.TxnID == 0 {
		cur, err := c.s.openCursor(m)
		return cur, func() {}, err
	}
	ct, err := c.txn(m.TxnID)
	if err != nil {
		return nil, nil, err
	}
	tb, err := c.s.eng.Table(m.Table)
	if err != nil {
		return nil, nil, err
	}
	if !ct.acquireStream() {
		return nil, nil, fmt.Errorf("server: transaction %d already finished", m.TxnID)
	}
	cur, err := ct.txn.Query(tb, queryOpts(m)...)
	if err != nil {
		ct.streams.Done()
		return nil, nil, err
	}
	return cur, ct.streams.Done, nil
}

func queryOpts(m *wire.QueryReq) []core.QueryOption {
	var opts []core.QueryOption
	if m.Index != "" {
		opts = append(opts, core.WithIndex(m.Index))
	}
	if m.Lo != nil || m.Hi != nil {
		opts = append(opts, core.WithKeyRange(m.Lo, m.Hi))
	}
	if len(m.Prefix) > 0 {
		opts = append(opts, core.WithPrefix(m.Prefix...))
	}
	if len(m.Projection) > 0 {
		opts = append(opts, core.WithProjection(m.Projection...))
	}
	if m.Limit > 0 {
		opts = append(opts, core.WithLimit(int(m.Limit)))
	}
	if m.Reverse {
		opts = append(opts, core.WithReverse())
	}
	if m.Parallel > 1 {
		// Clamp: the segment planner bounds its own fan-out, but there is
		// no reason to let one request spawn more workers than cores.
		n := int(m.Parallel)
		if max := runtime.GOMAXPROCS(0) * 2; n > max {
			n = max
		}
		opts = append(opts, core.WithParallel(n))
		if m.Unordered {
			opts = append(opts, core.WithMergeMode(core.MergeUnordered))
		}
	}
	return opts
}

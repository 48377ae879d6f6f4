package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/client"
	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/storage"
	"repro/internal/tuple"
)

// executor is the layer a worker drives: the served engine through the
// client package, or the embedded engine through core.
type executor interface {
	// apply runs a one-op insert (rid 0) or update and returns the
	// row's RID afterwards.
	apply(row tuple.Row, rid uint64) (uint64, error)
	get(id int64) (tuple.Row, bool, error)
	// query runs an index query projected to id,a,b over one key
	// (point) or over [lo, hi), appending the rows to dst. The embedded
	// engine also reports the cursor's answer-path counters.
	query(lo, hi int64, point bool, dst []covered) ([]covered, core.QueryStats, error)
}

type clientExec struct{ cl *client.Client }

func (e clientExec) apply(row tuple.Row, rid uint64) (uint64, error) {
	var b client.Batch
	if rid == 0 {
		b.Insert(row)
	} else {
		b.Update(rid, row)
	}
	resp, err := e.cl.Apply(tableName, &b)
	if err != nil {
		return 0, err
	}
	if resp.Applied != 1 || len(resp.RIDs) != 1 {
		return 0, fmt.Errorf("apply: %d of 1 ops applied: %v", resp.Applied, resp.Err(0))
	}
	return resp.RIDs[0], nil
}

func (e clientExec) get(id int64) (tuple.Row, bool, error) {
	return e.cl.Get(tableName, indexName, tuple.Int64(id))
}

func (e clientExec) query(lo, hi int64, point bool, dst []covered) ([]covered, core.QueryStats, error) {
	opts := []client.QueryOption{client.WithIndex(indexName), client.WithProjection(coveredFields...)}
	if point {
		opts = append(opts, client.WithPrefix(tuple.Int64(lo)))
	} else {
		opts = append(opts, client.WithKeyRange(tuple.Row{tuple.Int64(lo)}, tuple.Row{tuple.Int64(hi)}))
	}
	rows, err := e.cl.Query(tableName, opts...)
	if err != nil {
		return dst, core.QueryStats{}, err
	}
	defer rows.Close()
	for rows.Next() {
		c, err := coveredOf(rows.Row())
		if err != nil {
			return dst, core.QueryStats{}, err
		}
		dst = append(dst, c)
	}
	return dst, core.QueryStats{}, rows.Err()
}

// coreExec replays ops on the embedded engine.
type coreExec struct {
	tb *core.Table
	ix *core.Index
}

func (e *coreExec) apply(row tuple.Row, rid uint64) (uint64, error) {
	var b core.Batch
	if rid == 0 {
		b.Insert(row)
	} else {
		b.Update(storage.UnpackRID(rid), row)
	}
	res, err := e.tb.Apply(&b, core.WithResultRIDs())
	if err != nil {
		return 0, err
	}
	return res.RIDs[0].Pack(), nil
}

func (e *coreExec) get(id int64) (tuple.Row, bool, error) {
	row, res, err := e.ix.Lookup(nil, tuple.Int64(id))
	return row, res.Found, err
}

func (e *coreExec) query(lo, hi int64, point bool, dst []covered) ([]covered, core.QueryStats, error) {
	cur, err := e.tb.Query(coreQueryOpts(lo, hi, point)...)
	if err != nil {
		return dst, core.QueryStats{}, err
	}
	defer cur.Close()
	for cur.Next() {
		c, err := coveredOf(cur.Row())
		if err != nil {
			return dst, cur.Stats(), err
		}
		dst = append(dst, c)
	}
	return dst, cur.Stats(), cur.Err()
}

// worker is one closed-loop connection: it sends its generator's next
// op as soon as the previous reply has arrived and been checked.
type worker struct {
	d    *dataset
	g    *generator
	m    *model
	ex   executor
	tr   *tracer // nil: no spans
	span string  // span name prefix: "client." or "core."

	record    bool     // keep samples (the measured phase)
	samples   []sample // one per op completed while recording
	rows      int64    // rows delivered while recording
	queries   int64    // queries completed while recording, and their cursor counters
	qstats    core.QueryStats
	attempted int64 // every op sent, in every phase
	failed    int64
	err       error // first failure; the worker stops at it

	acked   []int64 // ingest: ids whose insert was acknowledged
	logical int64   // user bytes of acked inserts
	buf     []covered
}

func newWorker(d *dataset, g *generator, m *model, ex executor, span string) *worker {
	return &worker{d: d, g: g, m: m, ex: ex, span: span}
}

// run drives ops until the deadline passes or the worker fails.
func (w *worker) run(until time.Time) {
	for w.err == nil && time.Now().Before(until) {
		o, ok := w.g.next()
		if !ok {
			return
		}
		w.attempted++
		t0, t1, err := w.do(o)
		if err != nil {
			w.failed++
			w.err = fmt.Errorf("%s%s id %d: %w", w.span, opNames[o.kind], o.id, err)
			return
		}
		if w.record {
			w.samples = append(w.samples, sample{lat: t1.Sub(t0), kind: o.kind})
			if w.tr != nil {
				w.tr.root(w.span+opNames[o.kind], t0, t1)
			}
		}
	}
}

// do sends one op and checks its reply. Only the call is timed: rows
// are built before t0 and checked after t1.
func (w *worker) do(o op) (t0, t1 time.Time, err error) {
	switch o.kind {
	case opInsert, opUpdate:
		a, rid := w.d.a(o.id), uint64(0)
		if o.kind == opUpdate {
			a, rid = o.a, w.m.rid(o.id)
		}
		row := w.d.row(o.id, a)
		t0 = time.Now()
		newRID, err := w.ex.apply(row, rid)
		t1 = time.Now()
		if err != nil {
			return t0, t1, err
		}
		if newRID == 0 {
			return t0, t1, errors.New("apply acked without a RID")
		}
		if o.kind == opUpdate {
			w.m.own[o.id] = ownRow{rid: newRID, a: o.a}
		} else {
			w.acked = append(w.acked, o.id)
			w.logical += w.d.logicalBytes(o.id)
		}
	case opGet:
		t0 = time.Now()
		row, found, err := w.ex.get(o.id)
		t1 = time.Now()
		if err != nil {
			return t0, t1, err
		}
		if !found {
			return t0, t1, errors.New("row not found")
		}
		a, checkA := w.m.wantA(w.g, o.id)
		err = checkFull(w.d, o.id, row, a, checkA)
		if w.record {
			w.rows++
		}
		return t0, t1, err
	case opPoint, opScan:
		hi := o.id + int64(2*w.g.scanKeys)
		t0 = time.Now()
		var st core.QueryStats
		w.buf, st, err = w.ex.query(o.id, hi, o.kind == opPoint, w.buf[:0])
		t1 = time.Now()
		if err != nil {
			return t0, t1, err
		}
		if w.record {
			w.rows += int64(len(w.buf))
			w.queries++
			w.qstats.Add(st)
		}
		if o.kind == opScan {
			return t0, t1, checkScan(w.d, o.id, w.g.scanKeys, w.buf)
		}
		if len(w.buf) != 1 {
			return t0, t1, fmt.Errorf("%d rows, want 1", len(w.buf))
		}
		a, checkA := w.m.wantA(w.g, o.id)
		return t0, t1, checkCovered(w.d, o.id, w.buf[0], a, checkA)
	}
	return t0, t1, nil
}

// sample is one completed op: its kind and how long it took.
type sample struct {
	lat  time.Duration
	kind opKind
}

// sampler polls process memory and the WAL while a phase runs.
type sampler struct {
	stop chan struct{}
	done chan struct{}

	// Highest Go-runtime memory in use in each completed one-second
	// window of the phase: all it maps, less heap pages returned to the
	// OS and free heap pages not yet returned. When the runtime returns
	// free pages lags the workload, so counting them made the figure
	// swing from run to run.
	peaks []uint64
	// WAL bytes and appends summed over polls with no checkpoint in
	// between, for the mean record size.
	walBytes, walAppends int64
}

func startSampler(in *instance) *sampler {
	s := &sampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		mem := []metrics.Sample{
			{Name: "/memory/classes/total:bytes"},
			{Name: "/memory/classes/heap/released:bytes"},
			{Name: "/memory/classes/heap/free:bytes"},
		}
		prev := in.eng.WALStats()
		var peak uint64
		windowEnd := time.Now().Add(time.Second)
		for {
			metrics.Read(mem)
			peak = max(peak, mem[0].Value.Uint64()-mem[1].Value.Uint64()-mem[2].Value.Uint64())
			if now := time.Now(); now.After(windowEnd) {
				s.peaks = append(s.peaks, peak)
				peak, windowEnd = 0, now.Add(time.Second)
			}
			cur := in.eng.WALStats()
			if cur.Bytes > prev.Bytes && cur.Appends > prev.Appends {
				s.walBytes += cur.Bytes - prev.Bytes
				s.walAppends += cur.Appends - prev.Appends
			}
			prev = cur
			select {
			case <-s.stop:
				if len(s.peaks) == 0 { // a phase shorter than one window
					s.peaks = append(s.peaks, peak)
				}
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

func (s *sampler) finish() {
	close(s.stop)
	<-s.done
}

// memPeak is the median of the windows' peaks. One peak over the whole
// phase would hang on where a GC cycle happened to fall; the median
// window is the peak the workload keeps returning to.
func (s *sampler) memPeak() uint64 {
	p := slices.Clone(s.peaks)
	slices.Sort(p)
	return p[len(p)/2]
}

// phaseResult is what the measured phase of a run produced.
type phaseResult struct {
	workers    []*worker
	elapsed    time.Duration
	delta      counters
	memPeak    uint64 // median of the per-second peaks
	memWindows int
	walRec     ratio // WAL bytes per append
}

func (p *phaseResult) ops() (n int64) {
	for _, w := range p.workers {
		n += int64(len(w.samples))
	}
	return n
}

// latencies returns the latencies of the ops of the given kinds.
func (p *phaseResult) latencies(kinds ...opKind) []time.Duration {
	var out []time.Duration
	for _, w := range p.workers {
		for _, s := range w.samples {
			if slices.Contains(kinds, s.kind) {
				out = append(out, s.lat)
			}
		}
	}
	return out
}

// opsPerSec is completed ops over the measured phase's wall time.
func (p *phaseResult) opsPerSec() float64 { return float64(p.ops()) / p.elapsed.Seconds() }

// p50 is the median latency of every op of the measured phase.
func (p *phaseResult) p50() time.Duration {
	return quantile(p.latencies(opInsert, opUpdate, opGet, opPoint, opScan), 0.5)
}

func (p *phaseResult) firstErr() error {
	var errs []error
	for _, w := range p.workers {
		errs = append(errs, w.err)
	}
	return errors.Join(errs...)
}

// drive runs the workers through an unmeasured warm-up, then the
// measured phase, with a counter snapshot on each side of it. When tr
// is set, the measured phase records a span per op and per page-file
// call.
func drive(cfg config, pr probe, workers []*worker, tr *tracer) *phaseResult {
	phase := func(d time.Duration) time.Duration {
		start := time.Now()
		until := start.Add(d)
		var wg sync.WaitGroup
		for _, w := range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				w.run(until)
			}()
		}
		wg.Wait()
		return time.Since(start)
	}
	// Set-up garbage is returned to the OS before the warm-up, which
	// then grows the heap back to what the workload needs; the memory
	// peak is the workload's own.
	debug.FreeOSMemory()
	phase(cfg.warm)
	for _, w := range workers {
		w.record, w.tr = true, tr
	}
	if tr != nil {
		pr.in.disk.tr.Store(tr)
	}
	smp := startSampler(pr.in)
	before := snapshot(pr)
	elapsed := phase(cfg.measure)
	after := snapshot(pr)
	smp.finish()
	pr.in.disk.tr.Store(nil)
	return &phaseResult{
		workers:    workers,
		elapsed:    elapsed,
		delta:      after.since(before),
		memPeak:    smp.memPeak(),
		memWindows: len(smp.peaks),
		walRec:     per(float64(smp.walBytes), "WAL bytes", float64(smp.walAppends), "WAL appends"),
	}
}

// workersFor builds one worker per connection over the executors.
func workersFor(cfg config, d *dataset, in *instance, workload string, hot []int32, exs []executor, span string) []*worker {
	ws := make([]*worker, len(exs))
	for c, ex := range exs {
		g := newGenerator(d, workload, c, cfg.conns, cfg.scanKeys, hot)
		ws[c] = newWorker(d, g, newModel(d, in.rids), ex, span)
	}
	return ws
}

// served runs the workload against an in-process nblb-server on the
// instance, over loopback, through the client package: one pooled
// connection per worker. The server's shutdown runs a final checkpoint.
func served(cfg config, d *dataset, in *instance, workload string, hot []int32, tr *tracer) (res *phaseResult, err error) {
	srv, err := server.New(server.Config{Engine: in.eng})
	if err != nil {
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	var wire [2]atomic.Int64
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(countingListener{Listener: l, in: &wire[0], out: &wire[1]}) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		err = errors.Join(err, srv.Shutdown(ctx), <-serveErr)
	}()

	exs := make([]executor, cfg.conns)
	for c := range exs {
		cl, err := client.Dial(l.Addr().String(), client.WithPoolSize(1))
		if err != nil {
			return nil, err
		}
		defer cl.Close()
		exs[c] = clientExec{cl: cl}
	}
	ws := workersFor(cfg, d, in, workload, hot, exs, "client.")
	return drive(cfg, probe{in: in, srv: srv, wire: &wire}, ws, tr), nil
}

// embedded replays the same seeded op streams on the instance's engine
// directly, one goroutine per connection, recording core.* spans.
func embedded(cfg config, d *dataset, in *instance, workload string, hot []int32, tr *tracer) *phaseResult {
	exs := make([]executor, cfg.conns)
	for c := range exs {
		exs[c] = &coreExec{tb: in.tb, ix: in.ix}
	}
	ws := workersFor(cfg, d, in, workload, hot, exs, "core.")
	return drive(cfg, probe{in: in}, ws, tr)
}

package core

import (
	"bytes"
	"fmt"
	"sort"

	"repro/internal/btree"
	"repro/internal/storage"
	"repro/internal/tuple"
)

// BatchOpKind tags one queued Batch operation.
type BatchOpKind uint8

const (
	// BatchInsert adds a new row.
	BatchInsert BatchOpKind = iota
	// BatchUpdate replaces the row at a RID.
	BatchUpdate
	// BatchDelete removes the row at a RID.
	BatchDelete
)

// BatchOp is the public view of one queued operation (Batch.Op), enough
// for callers that post-process Apply results — e.g. the hot/cold
// partition recording forwarding entries for relocated updates.
type BatchOp struct {
	Kind BatchOpKind
	// RID is the update/delete target (InvalidRID for inserts).
	RID storage.RID
}

type batchOp struct {
	kind BatchOpKind
	row  tuple.Row // insert/update: the new row (aliased, not copied)
	rid  storage.RID
}

// Batch accumulates mutations for Table.Apply — the write-side builder
// that is to Insert/Update/Delete what Query is to Scan. A zero Batch
// is ready to use:
//
//	var b core.Batch
//	b.Insert(row1).Insert(row2)
//	b.Update(rid, row3)
//	b.Delete(rid2)
//	res, err := tbl.Apply(&b)
//
// Rows are aliased, not copied: they must stay unchanged until Apply
// returns. A Batch is not safe for concurrent use, but many goroutines
// may Apply distinct batches to one table in parallel. Ops within one
// batch must target distinct rows and index keys — Apply reorders work
// across ops (heap runs, key-sorted index runs), so the relative order
// of two ops touching the same key is unspecified unless
// WithSyncIndexes pins batch order.
type Batch struct {
	ops []batchOp
}

// Insert queues a row insert. Returns the batch for chaining.
func (b *Batch) Insert(row tuple.Row) *Batch {
	b.ops = append(b.ops, batchOp{kind: BatchInsert, row: row})
	return b
}

// Update queues replacing the row at rid with row.
func (b *Batch) Update(rid storage.RID, row tuple.Row) *Batch {
	b.ops = append(b.ops, batchOp{kind: BatchUpdate, row: row, rid: rid})
	return b
}

// Delete queues removing the row at rid.
func (b *Batch) Delete(rid storage.RID) *Batch {
	b.ops = append(b.ops, batchOp{kind: BatchDelete, rid: rid})
	return b
}

// Len returns the number of queued ops.
func (b *Batch) Len() int { return len(b.ops) }

// Op returns the i-th queued op's kind and target.
func (b *Batch) Op(i int) BatchOp {
	op := b.ops[i]
	return BatchOp{Kind: op.kind, RID: op.rid}
}

// Reset empties the batch for reuse, keeping its capacity.
func (b *Batch) Reset() { b.ops = b.ops[:0] }

// ApplyOption configures Table.Apply.
type ApplyOption func(*applyConfig)

type applyConfig struct {
	sync     bool
	fill     float64
	wantRIDs bool
	isolate  bool
	// stamp is the commit timestamp raw inserts are born at when a
	// snapshot is pinned (0 = no snapshot open, no metadata written).
	// See Engine.rawStampTS.
	stamp uint64
}

// WithSyncIndexes applies each op's index maintenance immediately after
// its heap write, in batch order — the one-row path's interleaving.
// This forfeits the leaf-grouped runs (one descent per key again) but
// preserves the relative order of ops touching the same key, so it is
// the right mode for batches with intra-batch dependencies.
func WithSyncIndexes() ApplyOption {
	return func(c *applyConfig) { c.sync = true }
}

// WithBatchFillFactor caps how full this batch's heap inserts pack any
// page (fraction of the page size), overriding the table's
// WithHeapFillFactor for the run only — bulk loads that want extra
// update headroom get it without reconfiguring the table. 0 keeps the
// table policy.
func WithBatchFillFactor(ff float64) ApplyOption {
	return func(c *applyConfig) { c.fill = ff }
}

// WithResultRIDs makes Apply record each op's resulting RID in
// Result.RIDs (inserts: the new row; updates: the possibly relocated
// row; deletes: InvalidRID). Off by default — the slice is one
// allocation a fire-and-forget ingest batch does not need.
func WithResultRIDs() ApplyOption {
	return func(c *applyConfig) { c.wantRIDs = true }
}

// WithErrorIsolation switches Apply from prefix semantics to per-op
// isolation: an op whose failure is attributable (bad row encoding, a
// missing update/delete target, a duplicate unique key) is recorded in
// Result.OpErrs and skipped, and every other op still applies. The
// network server's cross-connection coalescer depends on this — one
// client's duplicate key must never fail a neighbor's op that happens
// to share the drained batch.
//
// Under isolation Result.ErrIndex points at the lowest failed op and
// OpErrs holds each op's error, but Result.Err stays nil — Apply
// returns a nil error when every failure was per-op. Only a
// non-attributable failure (an I/O error mid-run) sets Err and is
// returned, and it also fails every op that had not completed by
// then. A failed duplicate insert leaves an orphaned heap row behind
// (its row was written before the collision was detected) but never
// touches the surviving row's index entries, exactly as in the
// default mode.
func WithErrorIsolation() ApplyOption {
	return func(c *applyConfig) { c.isolate = true }
}

// Result reports what one Apply did.
//
// The contract is per-op, not transactional: each op applies
// independently and becomes visible to concurrent readers atomically
// per structure (heap row before its index entries for inserts, index
// entries removed before the heap row for deletes), so a reader never
// observes a half-applied row — but there is no all-or-nothing batch
// and no rollback. On error, ops before ErrIndex are applied, the op
// at ErrIndex and everything after are not; when the error arose below
// the per-op stage (an I/O failure mid-run), Applied is a lower bound
// and later ops may be partially indexed.
type Result struct {
	// Applied counts ops applied end to end.
	Applied int
	// ErrIndex is the batch position of the first failed op, -1 when
	// every op applied (or the failure was not attributable to one op).
	ErrIndex int
	// Err is the first error encountered (also returned by Apply).
	Err error
	// RIDs holds each op's resulting RID when WithResultRIDs was given.
	// Each entry is filled the moment the op's heap write lands, so on
	// a failed batch the RIDs of ops that did reach the heap are still
	// reported (ops that never ran stay InvalidRID).
	RIDs []storage.RID
	// OpErrs holds each op's error under WithErrorIsolation (nil entry
	// = the op applied). Nil without the option.
	OpErrs []error
}

// fail records the first error on the result and returns it.
func (r *Result) fail(i int, err error) error {
	if r.Err == nil {
		r.ErrIndex, r.Err = i, err
	}
	return r.Err
}

// failOp records an op-attributable failure under isolation: the op's
// error lands in OpErrs, ErrIndex tracks the lowest failed position,
// and the batch carries on. Result.Err is deliberately not touched —
// per-op failures do not fail an isolated batch.
func (r *Result) failOp(i int, err error) {
	if r.OpErrs[i] == nil {
		r.OpErrs[i] = err
	}
	if r.ErrIndex == -1 || i < r.ErrIndex {
		r.ErrIndex = i
	}
}

// failRemaining marks every op that has not already failed with err —
// isolation's handling of a non-attributable mid-run failure, where
// "which ops completed" is unknowable below the per-op stage.
func (r *Result) failRemaining(err error) {
	for i := range r.OpErrs {
		if r.OpErrs[i] == nil {
			r.OpErrs[i] = err
		}
	}
}

// opState carries an op's pre-flight products through the stages.
type opState struct {
	rec    []byte    // encoded new row (insert/update)
	oldRow tuple.Row // pre-image (update/delete)
	newRID storage.RID
	skip   bool // isolation: op failed, keep it out of later stages
}

// Apply executes the batch against the table and every index. See
// Result for the per-op-atomicity contract and Batch for aliasing and
// intra-batch ordering rules.
//
// The default mode amortizes per-op costs across the batch:
//
//  1. Pre-flight: rows encode and pre-images load, in batch order; the
//     first failure truncates the batch at that op.
//  2. Index deletes (delete ops) apply per index as key-sorted
//     leaf-grouped runs (btree.Tree.ApplyRun) — entries leave the
//     indexes before their heap rows die, so readers cannot chase a
//     freed RID.
//  3. Heap: deletes and updates per RID, inserts dispatched through the
//     sharded heap in shard-affine runs (heap.File.InsertRun) under one
//     shard-mutex acquisition instead of one per row.
//  4. Index upserts (inserts, update key moves) apply as key-sorted
//     leaf-grouped runs: one crabbed descent and one exclusive leaf
//     latch per leaf run instead of per key.
//
// Like every table write, Apply holds the table mutex only shared (to
// pin the index set): parallel Applies contend per heap shard and per
// index leaf, never on the table.
//
// nblb:commit-entry — the audited mutate+log-append critical section.
func (t *Table) Apply(b *Batch, opts ...ApplyOption) (Result, error) {
	var cfg applyConfig
	for _, o := range opts {
		o(&cfg)
	}
	res := Result{ErrIndex: -1}
	if b == nil || len(b.ops) == 0 {
		return res, nil
	}
	ops := b.ops
	if cfg.wantRIDs {
		res.RIDs = make([]storage.RID, len(ops))
		for i := range res.RIDs {
			res.RIDs[i] = storage.InvalidRID
		}
	}
	if cfg.isolate {
		res.OpErrs = make([]error, len(ops))
	}

	e := t.engine
	var wb *walBatch
	if e.wal != nil {
		wb = e.getWALBatch(t.name)
	}
	// The raw commit stamp allocates BEFORE the gate: rawStampTS takes
	// txnMu, and the engine-wide lock order is txnMu before commitGate
	// (Txn.Commit holds txnMu across its gated section). Taking txnMu
	// with the gate held shared would deadlock the moment a gate writer
	// (checkpoint, GC) is pending: the writer waits for this reader, a
	// committer holding txnMu waits for the writer, and this reader
	// waits for the committer's txnMu.
	cfg.stamp = e.rawStampTS()
	// The whole mutate+log-append runs inside the commit gate (shared):
	// under WAL so a checkpoint can never observe effects whose record
	// is half-appended, and even without one because RunGC holds the
	// gate exclusively and relies on it to serialize its heap and tree
	// surgery against concurrent raw mutations. The fsync happens after
	// the gate drops — holding it across disk latency would stall
	// checkpoints for nothing.
	e.commitGate.RLock()
	t.mu.RLock()

	// Pre-flight, in batch order. A failure here truncates the batch
	// (ops before it proceed through the stages, it and everything
	// after are never started) — or, under isolation, fails just the
	// offending op and keeps going.
	st := make([]opState, len(ops))
	n := len(ops)
	for i := range ops {
		op := &ops[i]
		var err error
		switch op.kind {
		case BatchInsert:
			st[i].rec, err = tuple.Encode(t.schema, op.row, nil)
			if err != nil {
				err = fmt.Errorf("core: encoding row for %q: %w", t.name, err)
			}
		case BatchUpdate:
			if st[i].oldRow, err = t.Get(op.rid); err != nil {
				err = fmt.Errorf("core: update of %v: %w", op.rid, err)
			} else if st[i].rec, err = tuple.Encode(t.schema, op.row, nil); err != nil {
				err = fmt.Errorf("core: encoding row for %q: %w", t.name, err)
			}
		case BatchDelete:
			if st[i].oldRow, err = t.Get(op.rid); err != nil {
				err = fmt.Errorf("core: delete of %v: %w", op.rid, err)
			}
		}
		if err != nil {
			if cfg.isolate {
				res.failOp(i, err)
				st[i].skip = true
				continue
			}
			res.fail(i, err)
			n = i
			break
		}
	}

	// A one-op batch (the Insert/Update/Delete wrappers) has nothing to
	// amortize: the sync path is the classic one-row pipeline without
	// the grouped stages' run scaffolding. The batch fill override is
	// the one thing only the grouped heap stage implements.
	if cfg.sync || (n == 1 && cfg.fill == 0) {
		t.applySync(ops[:n], st[:n], &res, cfg, wb)
	} else {
		t.applyGrouped(ops[:n], st[:n], &res, cfg, wb)
	}

	// Commit epilogue. The record is appended even for a failed batch —
	// its logged actions are exactly the effects that landed (damage-
	// then-report), so recovery reproduces them.
	var lsn uint64
	if !wb.empty() {
		if l, aerr := e.wal.Append(recBatch, wb.payload()); aerr != nil {
			res.fail(-1, aerr)
		} else {
			lsn = l
		}
	}
	t.mu.RUnlock()
	e.commitGate.RUnlock()
	if wb != nil {
		e.putWALBatch(wb)
		if lsn != 0 {
			if cerr := e.walCommit(lsn); cerr != nil {
				res.fail(-1, cerr)
			}
		}
		e.maybeCheckpoint()
	}
	return res, res.Err
}

// applySync is the batch-order mode: each op runs the classic one-row
// pipeline (heap write, then per-index maintenance) before the next op
// starts. Every landed effect is logged to wb in effect order.
func (t *Table) applySync(ops []batchOp, st []opState, res *Result, cfg applyConfig, wb *walBatch) {
	for i := range ops {
		if st[i].skip {
			continue
		}
		op := &ops[i]
		var err error
		switch op.kind {
		case BatchInsert:
			var rid storage.RID
			if cfg.stamp != 0 {
				// Insert and meta land in one exclusive section so a heap
				// scanner that copied the new row's bytes always finds its
				// born stamp when it takes the read lock to check.
				t.vers.lockWrite()
				rid, err = t.file.Insert(st[i].rec)
				if err == nil {
					t.vers.set(rid, versionMeta{born: cfg.stamp})
				}
				t.vers.mu.Unlock()
			} else {
				rid, err = t.file.Insert(st[i].rec)
			}
			if err == nil {
				st[i].newRID = rid
				t.rows.Add(1)
				wb.put(rid, rid, st[i].rec)
				for _, ix := range t.indexes {
					if err = ix.insertEntry(op.row, rid, wb); err != nil {
						err = fmt.Errorf("core: maintaining index %q: %w", ix.name, err)
						break
					}
				}
			}
		case BatchUpdate:
			var newRID storage.RID
			if newRID, err = t.file.Update(op.rid, st[i].rec); err == nil {
				st[i].newRID = newRID
				moved := newRID != op.rid
				wb.put(op.rid, newRID, st[i].rec)
				for _, ix := range t.indexes {
					if err = ix.updateEntry(st[i].oldRow, op.row, op.rid, newRID, moved, wb); err != nil {
						err = fmt.Errorf("core: maintaining index %q: %w", ix.name, err)
						break
					}
				}
			}
		case BatchDelete:
			// Delete order is index-first (unlike the historical one-row
			// path): a concurrent index reader can then never hold an
			// entry whose heap row is already gone.
			for _, ix := range t.indexes {
				if err = ix.deleteEntry(st[i].oldRow, op.rid, wb); err != nil {
					err = fmt.Errorf("core: maintaining index %q: %w", ix.name, err)
					break
				}
			}
			if err == nil {
				if err = t.file.Delete(op.rid); err == nil {
					t.rows.Add(-1)
					wb.del(op.rid)
				}
			}
		}
		if err != nil {
			if cfg.isolate {
				res.failOp(i, err)
				continue
			}
			res.fail(i, err)
			return
		}
		if res.RIDs != nil {
			res.RIDs[i] = st[i].newRID
		}
		res.Applied++
	}
}

// runEntries is the per-index accumulation of one grouped stage: run
// entries plus each entry's originating batch position (for error and
// duplicate attribution after the key sort).
type runEntries struct {
	entries []btree.RunEntry
	opIdx   []int
}

func (r *runEntries) add(key []byte, value uint64, op btree.RunOp, opIdx int) {
	r.entries = append(r.entries, btree.RunEntry{Key: key, Value: value, Op: op})
	r.opIdx = append(r.opIdx, opIdx)
}

func (r *runEntries) sort() {
	sort.Sort(r)
}

func (r *runEntries) Len() int { return len(r.entries) }
func (r *runEntries) Less(i, j int) bool {
	return bytes.Compare(r.entries[i].Key, r.entries[j].Key) < 0
}
func (r *runEntries) Swap(i, j int) {
	r.entries[i], r.entries[j] = r.entries[j], r.entries[i]
	r.opIdx[i], r.opIdx[j] = r.opIdx[j], r.opIdx[i]
}

// applyGrouped is the amortized mode; see Apply for the stage order.
// Landed effects log to wb in effect order: stage-2 runs, heap ops,
// stage-4 runs. A run that fails mid-ApplyRun is not logged — its
// partial tree damage falls under the same "later ops may be partially
// indexed" caveat the Result contract already carries.
func (t *Table) applyGrouped(ops []batchOp, st []opState, res *Result, cfg applyConfig, wb *walBatch) {
	if len(ops) == 0 {
		return
	}
	// Stage 2: index deletes for delete ops, one sorted leaf-grouped run
	// per index, then the cache invalidations deleteEntry would do.
	var dels runEntries
	for _, ix := range t.indexes {
		dels.entries, dels.opIdx = dels.entries[:0], dels.opIdx[:0]
		for i := range ops {
			if ops[i].kind != BatchDelete || st[i].skip {
				continue
			}
			key, err := ix.entryKey(st[i].oldRow, ops[i].rid)
			if err != nil {
				if cfg.isolate {
					res.failOp(i, err)
					st[i].skip = true
					continue
				}
				res.fail(i, err)
				return
			}
			dels.add(key, 0, btree.RunDelete, i)
		}
		if dels.Len() == 0 {
			continue
		}
		dels.sort()
		if _, err := ix.tree.ApplyRun(dels.entries); err != nil {
			err = fmt.Errorf("core: maintaining index %q: %w", ix.name, err)
			if cfg.isolate {
				res.failRemaining(err)
			}
			res.fail(-1, err)
			return
		}
		wb.idx(ix.name, dels.entries...)
		if ix.cache != nil {
			for _, e := range dels.entries {
				ix.cache.NotifyUpdate(e.Key)
			}
		}
	}

	// Stage 3: heap. Deletes and updates are per-RID; inserts run
	// through the sharded heap in shard-affine runs.
	var (
		insRecs [][]byte
		insOps  []int
	)
	// RIDs are published into the result the moment each heap op lands,
	// not at the end: a later stage failing must not hide where the
	// already-durable ops put their rows (the hot/cold partition's
	// forwarding updates depend on relocated RIDs being reported even
	// for a batch that then errors).
	for i := range ops {
		if st[i].skip {
			continue
		}
		op := &ops[i]
		switch op.kind {
		case BatchDelete:
			if err := t.file.Delete(op.rid); err != nil {
				if cfg.isolate {
					res.failOp(i, err)
					st[i].skip = true
					continue
				}
				res.fail(i, err)
				return
			}
			t.rows.Add(-1)
			wb.del(op.rid)
		case BatchUpdate:
			newRID, err := t.file.Update(op.rid, st[i].rec)
			if err != nil {
				if cfg.isolate {
					res.failOp(i, err)
					st[i].skip = true
					continue
				}
				res.fail(i, err)
				return
			}
			st[i].newRID = newRID
			wb.put(op.rid, newRID, st[i].rec)
			if res.RIDs != nil {
				res.RIDs[i] = newRID
			}
		case BatchInsert:
			insRecs = append(insRecs, st[i].rec)
			insOps = append(insOps, i)
		}
	}
	if len(insRecs) > 0 {
		rids := make([]storage.RID, len(insRecs))
		if cfg.stamp != 0 {
			t.vers.lockWrite()
		}
		placed, err := t.file.InsertRunFill(insRecs, rids, cfg.fill)
		if cfg.stamp != 0 {
			// Same exclusive insert+meta section as the sync path, run-wide.
			for k := 0; k < placed; k++ {
				t.vers.set(rids[k], versionMeta{born: cfg.stamp})
			}
			t.vers.mu.Unlock()
		}
		for k := 0; k < placed; k++ {
			st[insOps[k]].newRID = rids[k]
			wb.put(rids[k], rids[k], insRecs[k])
			if res.RIDs != nil {
				res.RIDs[insOps[k]] = rids[k]
			}
		}
		t.rows.Add(int64(placed))
		if err != nil {
			if !cfg.isolate {
				res.fail(insOps[placed], err)
				return
			}
			// The rows that did place still get their index entries; the
			// rest fail as a group (the run stops at the first bad spot,
			// so "placed and after" is exact attribution here).
			for _, oi := range insOps[placed:] {
				res.failOp(oi, err)
				st[oi].skip = true
			}
		}
	}

	// Stage 4: index upserts — insert entries, plus update key moves and
	// RID relocations — one sorted leaf-grouped run per index, then the
	// cache invalidations updateEntry would do.
	var ups runEntries
	for _, ix := range t.indexes {
		ups.entries, ups.opIdx = ups.entries[:0], ups.opIdx[:0]
		for i := range ops {
			if st[i].skip {
				continue
			}
			op := &ops[i]
			switch op.kind {
			case BatchInsert:
				key, err := ix.entryKey(op.row, st[i].newRID)
				if err != nil {
					if cfg.isolate {
						res.failOp(i, err)
						st[i].skip = true
						continue
					}
					res.fail(i, err)
					return
				}
				// Inserts on a unique index go in as if-absent so a
				// duplicate is detected via Existed without clobbering
				// the survivor's entry.
				insOp := btree.RunUpsert
				if ix.unique {
					insOp = btree.RunInsertIfAbsent
				}
				ups.add(key, st[i].newRID.Pack(), insOp, i)
			case BatchUpdate:
				oldKey, err := ix.entryKey(st[i].oldRow, op.rid)
				if err == nil {
					var newKey []byte
					if newKey, err = ix.entryKey(op.row, st[i].newRID); err == nil {
						t.stageUpdateEntries(&ups, ix, op, st, i, oldKey, newKey)
						continue
					}
				}
				if cfg.isolate {
					res.failOp(i, err)
					st[i].skip = true
					continue
				}
				res.fail(i, err)
				return
			}
		}
		if ups.Len() == 0 {
			continue
		}
		ups.sort()
		if _, err := ix.tree.ApplyRun(ups.entries); err != nil {
			err = fmt.Errorf("core: maintaining index %q: %w", ix.name, err)
			if cfg.isolate {
				res.failRemaining(err)
			}
			res.fail(-1, err)
			return
		}
		// Unique-index duplicate detection, with exact attribution: an
		// if-absent insert entry whose key already existed is the batch
		// counterpart of insertEntry's duplicate-key error. The
		// survivor's entry is untouched (the duplicate's heap row is
		// orphaned, invisible to every index). The WAL logs only the
		// entries that actually wrote — a collided if-absent entry is a
		// no-op and must not replay as an upsert. Under isolation the
		// duplicate fails alone and is kept out of any remaining
		// indexes' runs.
		logged := ups.entries
		collided := false
		if ix.unique {
			for k := range ups.entries {
				e := &ups.entries[k]
				if e.Op == btree.RunInsertIfAbsent && e.Existed && ops[ups.opIdx[k]].kind == BatchInsert {
					collided = true
					err := fmt.Errorf("core: index %q: duplicate key", ix.name)
					if cfg.isolate {
						res.failOp(ups.opIdx[k], err)
						st[ups.opIdx[k]].skip = true
						continue
					}
					res.fail(ups.opIdx[k], err)
					// Fail the batch, but still log the entries that
					// landed before returning.
				}
			}
			if collided {
				logged = make([]btree.RunEntry, 0, len(ups.entries))
				for _, e := range ups.entries {
					if e.Op == btree.RunInsertIfAbsent && e.Existed {
						continue
					}
					logged = append(logged, e)
				}
			}
		}
		wb.idx(ix.name, logged...)
		if collided && !cfg.isolate {
			return
		}
	}

	if cfg.isolate {
		for i := range ops {
			if res.OpErrs[i] == nil {
				res.Applied++
			}
		}
		return
	}
	res.Applied = len(ops)
}

// stageUpdateEntries queues one update op's stage-4 index work: a
// delete+upsert pair on a key change, an upsert on a bare RID move,
// and the cache invalidations updateEntry would do.
func (t *Table) stageUpdateEntries(ups *runEntries, ix *Index, op *batchOp, st []opState, i int, oldKey, newKey []byte) {
	moved := st[i].newRID != op.rid
	keyChanged := !bytes.Equal(oldKey, newKey)
	if keyChanged {
		ups.add(oldKey, 0, btree.RunDelete, i)
		ups.add(newKey, st[i].newRID.Pack(), btree.RunUpsert, i)
	} else if moved {
		ups.add(newKey, st[i].newRID.Pack(), btree.RunUpsert, i)
	}
	if ix.cache != nil && (moved || keyChanged || ix.cachedFieldsChanged(st[i].oldRow, op.row)) {
		ix.cache.NotifyUpdate(oldKey)
		if keyChanged {
			ix.cache.NotifyUpdate(newKey)
		}
	}
}

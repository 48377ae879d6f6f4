package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/btree"
	"repro/internal/storage"
	"repro/internal/tuple"
	"repro/internal/wal"
)

// ErrTxnDone reports a Txn used after Commit or Abort.
var ErrTxnDone = errors.New("core: transaction already finished")

// ErrTxnConflict reports first-committer-wins validation failure: a row
// this transaction staged a write against was modified by a transaction
// that committed after this one began.
var ErrTxnConflict = errors.New("core: transaction conflict")

// Txn is a multi-op snapshot transaction. Begin pins a snapshot
// timestamp; Apply stages batches (nothing is written); Query opens
// snapshot-isolated cursors that read as-of the start timestamp without
// re-validating against in-flight writers; Commit applies every staged
// op atomically under one commit timestamp and one WAL record, after a
// first-committer-wins conflict check. Abort discards the stage.
//
// Semantics and limits, deliberately explicit:
//
//   - Isolation level is snapshot isolation: reads see the last state
//     committed before Begin, writes conflict-check against commits
//     that landed since. Write skew is possible, as in any SI engine.
//   - Query does NOT see this transaction's own staged writes (no
//     read-your-own-writes); it reads the Begin snapshot.
//   - Raw Table.Apply participates in MVCC only as far as snapshots
//     need it: while any snapshot is pinned, raw INSERTS are stamped
//     with a fresh commit timestamp (so open snapshot cursors — e.g.
//     behind the server's write coalescer — never see rows that landed
//     after they began); raw updates and deletes still mutate in place
//     and are invisible to the conflict check. Mixing raw updates or
//     deletes with transactions on the same rows is unsupported.
//   - A Txn is not safe for concurrent use by multiple goroutines.
//   - Cursors from Query must be exhausted or closed before Commit or
//     Abort: finishing the transaction releases its snapshot, after
//     which the GC may unlink versions the cursor could still visit.
type Txn struct {
	e       *Engine
	startTS uint64
	done    bool

	tables  []*txnTable
	byName  map[string]*txnTable
	claimed map[string]claimRef      // staged unique entry keys
	freed   map[string]struct{}      // unique entry keys this txn's updates/deletes release
	writes  map[writeTarget]struct{} // staged update/delete targets
	nBatch  int                      // batches staged (for error attribution)
}

// claimRef records which staged op claimed a unique key, for
// duplicate-key attribution in both stage-time and commit-time errors.
type claimRef struct {
	ix    *Index
	entry []byte
	batch int
	op    int
}

type writeTarget struct {
	table string
	rid   storage.RID
}

type txnTable struct {
	t   *Table
	ops []txnOp
}

type txnOp struct {
	kind   BatchOpKind
	rid    storage.RID // update/delete target
	rec    []byte      // encoded post-image (insert/update)
	row    tuple.Row   // post-image (aliased; see Batch aliasing rules)
	oldRow tuple.Row   // pre-image loaded at stage time (update/delete)
	newRID storage.RID // filled at commit
}

// Begin starts a transaction reading as-of the current committed state.
func (e *Engine) Begin() *Txn {
	return &Txn{e: e, startTS: e.registerSnapshot()}
}

// StartTS returns the transaction's snapshot timestamp.
func (tx *Txn) StartTS() uint64 { return tx.startTS }

func (tx *Txn) table(t *Table) *txnTable {
	if tx.byName == nil {
		tx.byName = make(map[string]*txnTable)
	}
	tt := tx.byName[t.name]
	if tt == nil {
		tt = &txnTable{t: t}
		tx.byName[t.name] = tt
		tx.tables = append(tx.tables, tt)
	}
	return tt
}

// Apply stages a batch against t. Nothing is written: rows encode, the
// pre-images of update/delete targets load, and unique-key claims are
// checked against the transaction's OWN staged writes — a duplicate key
// between two staged ops fails here, with Result.ErrIndex pointing at
// the offending op in THIS batch (the fix the raw pipeline cannot make:
// its ErrIndex only ever sees the durable tree). A failed Apply stages
// none of the batch. Duplicates against already-committed state are
// checked at Commit, under the commit lock.
//
// Like Batch itself, staged rows are aliased, not copied: they must
// stay unchanged until Commit returns.
func (tx *Txn) Apply(t *Table, b *Batch) (Result, error) {
	res := Result{ErrIndex: -1}
	if tx.done {
		res.Err = ErrTxnDone
		return res, res.Err
	}
	if t.engine != tx.e {
		res.Err = fmt.Errorf("core: table %q belongs to a different engine", t.name)
		return res, res.Err
	}
	if b == nil || len(b.ops) == 0 {
		return res, nil
	}
	batchNo := tx.nBatch

	staged := make([]txnOp, 0, len(b.ops))
	var claims []claimRef
	var frees []string
	var targets []writeTarget
	claimedAt := func(key string) (claimRef, bool) {
		if c, ok := tx.claimed[key]; ok {
			return c, true
		}
		for _, c := range claims {
			if claimKey(c.ix, c.entry) == key {
				return c, true
			}
		}
		return claimRef{}, false
	}

	t.mu.RLock()
	defer t.mu.RUnlock()
	for i := range b.ops {
		op := &b.ops[i]
		sop := txnOp{kind: op.kind, rid: op.rid, row: op.row}
		var err error
		switch op.kind {
		case BatchInsert:
			if sop.rec, err = tuple.Encode(t.schema, op.row, nil); err != nil {
				return res, res.fail(i, fmt.Errorf("core: encoding row for %q: %w", t.name, err))
			}
		case BatchUpdate, BatchDelete:
			tgt := writeTarget{t.name, op.rid}
			if _, dup := tx.writes[tgt]; dup {
				return res, res.fail(i, fmt.Errorf("core: row %v already written in this transaction", op.rid))
			}
			for _, w := range targets {
				if w == tgt {
					return res, res.fail(i, fmt.Errorf("core: row %v already written in this transaction", op.rid))
				}
			}
			targets = append(targets, tgt)
			if sop.oldRow, err = t.Get(op.rid); err != nil {
				return res, res.fail(i, fmt.Errorf("core: staging write of %v: %w", op.rid, err))
			}
			if op.kind == BatchUpdate {
				if sop.rec, err = tuple.Encode(t.schema, op.row, nil); err != nil {
					return res, res.fail(i, fmt.Errorf("core: encoding row for %q: %w", t.name, err))
				}
			}
		}
		// Unique-key accounting against the transaction's own stage.
		for _, ix := range t.indexes {
			if !ix.unique {
				continue
			}
			var oldKey, newKey []byte
			if sop.oldRow != nil {
				if oldKey, err = ix.entryKey(sop.oldRow, op.rid); err != nil {
					return res, res.fail(i, err)
				}
			}
			if op.kind != BatchDelete {
				if newKey, err = ix.entryKey(sop.row, storage.InvalidRID); err != nil {
					return res, res.fail(i, err)
				}
			}
			if oldKey != nil && newKey != nil && string(oldKey) == string(newKey) {
				continue // key unchanged: the version chain carries it
			}
			if newKey != nil {
				k := claimKey(ix, newKey)
				if c, dup := claimedAt(k); dup {
					return res, res.fail(i, fmt.Errorf(
						"core: index %q: duplicate key staged by op %d of batch %d in this transaction",
						ix.name, c.op, c.batch))
				}
				claims = append(claims, claimRef{ix: ix, entry: newKey, batch: batchNo, op: i})
			}
			if oldKey != nil {
				frees = append(frees, claimKey(ix, oldKey))
			}
		}
		staged = append(staged, sop)
	}

	// The whole batch validated — merge it into the stage.
	tt := tx.table(t)
	tt.ops = append(tt.ops, staged...)
	if tx.claimed == nil {
		tx.claimed = make(map[string]claimRef)
	}
	if tx.freed == nil {
		tx.freed = make(map[string]struct{})
	}
	if tx.writes == nil {
		tx.writes = make(map[writeTarget]struct{})
	}
	for _, c := range claims {
		tx.claimed[claimKey(c.ix, c.entry)] = c
	}
	// A key stays freed even when re-claimed: the commit pre-check uses
	// the freed set to recognize that the durable occupant of a claimed
	// key is a row this transaction itself kills (the conflict check has
	// already proven nobody else touched that row).
	for _, f := range frees {
		tx.freed[f] = struct{}{}
	}
	for _, w := range targets {
		tx.writes[w] = struct{}{}
	}
	tx.nBatch++
	res.Applied = len(staged)
	return res, nil
}

func claimKey(ix *Index, entry []byte) string {
	return ix.table.name + "\x00" + ix.name + "\x00" + string(entry)
}

// Query opens a cursor over t reading as-of the transaction's start
// timestamp: a timestamp-consistent snapshot, never re-validated
// against concurrent committers. All Query options pass through
// (WithIndex, bounds, projections, filters, WithParallel...); the cache
// policy is forced to HeapOnly (cached payloads describe latest state).
// It does NOT see this transaction's own staged writes. Cursors must be
// drained or closed before Commit/Abort — finishing the transaction
// releases the snapshot that protects their versions from GC.
func (tx *Txn) Query(t *Table, opts ...QueryOption) (*Cursor, error) {
	if tx.done {
		return nil, ErrTxnDone
	}
	withSnap := make([]QueryOption, 0, len(opts)+1)
	withSnap = append(withSnap, opts...)
	withSnap = append(withSnap, withSnapshot(tx.startTS))
	return t.Query(withSnap...)
}

// Abort discards the staged writes and releases the snapshot.
func (tx *Txn) Abort() {
	if tx.done {
		return
	}
	tx.done = true
	tx.e.releaseSnapshot(tx.startTS)
	tx.e.maybeGC()
}

// Commit applies every staged op atomically: one commit timestamp, one
// WAL record (so recovery replays the transaction whole or not at all),
// and visibility flips for every reader at the instant the clock
// publishes. Returns ErrTxnConflict (wrapped) when a staged target was
// modified since Begin, or a duplicate-key error when a claimed unique
// key is held by a live committed row this transaction does not
// replace. On any failure — validation, a mid-commit heap or index
// error, a WAL append error — nothing stays applied: effects that had
// already landed are rolled back before the commit gate drops, and the
// unpublished timestamp is free for reuse. The one exception is a
// group-commit fsync failure after the clock published: the commit is
// visible in memory but may not survive a crash (the same contract as
// a raw Apply whose fsync fails).
//
// nblb:commit-entry — the audited txn commit critical section.
func (tx *Txn) Commit() error {
	if tx.done {
		return ErrTxnDone
	}
	tx.done = true
	e := tx.e
	defer func() {
		e.releaseSnapshot(tx.startTS)
		e.maybeGC()
	}()
	if len(tx.tables) == 0 {
		return nil
	}

	e.txnMu.Lock()
	defer e.txnMu.Unlock()
	ts := e.clock.Load() + 1

	// First-committer-wins: every staged update/delete target must still
	// be the version this transaction read — not superseded, not deleted
	// — by any transaction that committed after our snapshot.
	for _, tt := range tx.tables {
		vs := &tt.t.vers
		vs.mu.RLock()
		for i := range tt.ops {
			op := &tt.ops[i]
			if op.kind == BatchInsert {
				continue
			}
			if m, ok := vs.m[op.rid]; ok && (m.dead != 0 || m.born > tx.startTS) {
				vs.mu.RUnlock()
				return fmt.Errorf("%w: row %v modified since the transaction began", ErrTxnConflict, op.rid)
			}
		}
		vs.mu.RUnlock()
	}

	// Claimed unique keys must not collide with live committed rows,
	// unless this transaction itself frees the key. Under txnMu this
	// verdict cannot be invalidated by another transaction.
	for k, c := range tx.claimed {
		v, found, err := c.ix.tree.Search(c.entry)
		if err != nil {
			return err
		}
		if !found {
			continue
		}
		if _, freed := tx.freed[k]; freed {
			continue
		}
		if c.ix.table.ridVisible(storage.UnpackRID(v), snapLatest) {
			return fmt.Errorf("core: index %q: duplicate key (op %d of batch %d)", c.ix.name, c.op, c.batch)
		}
	}

	// The gate is taken even without a WAL: RunGC holds it exclusively
	// and relies on it to serialize against commit effects and entry
	// upserts (checkpoints additionally rely on it for clock/meta
	// consistency).
	e.commitGate.RLock()
	undo, err := tx.commitEffects(ts)
	var lsn uint64
	if err == nil && e.wal != nil {
		payload := tx.encodeTxnRecord(ts)
		if lsn, err = e.wal.Append(recTxn, payload); err == nil {
			wal.TestPoint("txn:appended")
		}
	}
	// Publish the clock before the gate drops so a checkpoint can never
	// snapshot the new versions' metadata against the old clock. On
	// error, roll the landed effects back before the gate drops instead:
	// the same gated section that made the partial state briefly
	// reachable guarantees no checkpoint or GC ever observes it, so the
	// failed commit leaves no trace and ts (never published) is safely
	// allocated again by the next committer.
	if err == nil {
		e.clock.Store(ts)
	} else {
		tx.rollbackEffects(ts, undo)
	}
	e.commitGate.RUnlock()
	if err != nil {
		return err
	}
	if lsn != 0 {
		if cerr := e.walCommit(lsn); cerr != nil {
			return cerr
		}
	}
	if e.wal != nil {
		e.maybeCheckpoint()
	}
	return nil
}

// tableUndo records one table's landed commit effects so a mid-commit
// failure can roll them back: how many ops' heap writes and meta flips
// landed, the counters already bumped, and every index-tree mutation
// in landing order.
type tableUndo struct {
	tt      *txnTable
	heapOps int   // ops whose heap write + version meta landed
	delta   int64 // rows-counter delta already applied
	dead    int   // deadVersions increments already applied
	entries []entryUndo
}

// entryUndo reverses one landed index-tree mutation: restore key to the
// packed RID it held before (restore), or delete the fresh entry.
type entryUndo struct {
	ix      *Index
	key     []byte
	val     uint64
	restore bool
}

// testCommitFailAfter > 0 makes commitEffects fail with an injected
// error just before the n-th staged heap op lands — test support for
// the rollback path. 0 disables injection.
var testCommitFailAfter atomic.Int64

// errInjectedCommitFailure is the error TestingFailCommitAfter injects.
var errInjectedCommitFailure = errors.New("core: injected commit failure")

// TestingFailCommitAfter arms a one-shot commitEffects failure just
// before the n-th staged heap op (across tables, in commit order)
// lands, exercising the mid-commit rollback. n = 0 disarms. Test
// support only.
func TestingFailCommitAfter(n int) { testCommitFailAfter.Store(int64(n)) }

// commitEffects lands the staged writes: new heap versions, version
// metadata, and index maintenance, per table. Caller holds txnMu and
// commitGate shared. The returned undo list records exactly what
// landed — on error the caller MUST run rollbackEffects with it before
// the gate drops.
//
// Per table the order is: all heap inserts and meta flips under the
// version store's exclusive lock, then index entries. A heap scanner
// that finds a new row in its page snapshot therefore always finds its
// meta too (the insert and the meta land inside one exclusive section,
// and the scanner's read lock can only be granted after it), and an
// index reader that finds a new entry finds the meta that was published
// before the entry (meta-before-entry ordering).
func (tx *Txn) commitEffects(ts uint64) ([]*tableUndo, error) {
	e := tx.e
	var undo []*tableUndo
	for _, tt := range tx.tables {
		t := tt.t
		u := &tableUndo{tt: tt}
		undo = append(undo, u)
		t.mu.RLock()
		vs := &t.vers
		vs.lockWrite()
		var delta int64
		for i := range tt.ops {
			op := &tt.ops[i]
			if v := testCommitFailAfter.Load(); v != 0 {
				if v == 1 {
					testCommitFailAfter.Store(0)
					vs.mu.Unlock()
					t.mu.RUnlock()
					return undo, errInjectedCommitFailure
				}
				testCommitFailAfter.Store(v - 1)
			}
			switch op.kind {
			case BatchInsert:
				rid, err := t.file.Insert(op.rec)
				if err != nil {
					vs.mu.Unlock()
					t.mu.RUnlock()
					return undo, fmt.Errorf("core: txn commit insert: %w", err)
				}
				op.newRID = rid
				vs.set(rid, versionMeta{born: ts})
				delta++
			case BatchUpdate:
				rid, err := t.file.Insert(op.rec)
				if err != nil {
					vs.mu.Unlock()
					t.mu.RUnlock()
					return undo, fmt.Errorf("core: txn commit update: %w", err)
				}
				op.newRID = rid
				vs.set(rid, versionMeta{born: ts, prev: op.rid.Pack()})
				vs.markDead(op.rid, ts)
				e.deadVersions.Add(1)
				u.dead++
			case BatchDelete:
				vs.markDead(op.rid, ts)
				e.deadVersions.Add(1)
				u.dead++
				delta--
			}
			u.heapOps = i + 1
		}
		vs.mu.Unlock()
		t.rows.Add(delta)
		u.delta = delta

		for i := range tt.ops {
			op := &tt.ops[i]
			if op.kind == BatchDelete {
				// Entries stay for snapshot readers; GC removes them with
				// the version. Invalidate cached payloads now.
				for _, ix := range t.indexes {
					if ix.cache != nil {
						if key, err := ix.entryKey(op.oldRow, op.rid); err == nil {
							ix.cache.NotifyUpdate(key)
						}
					}
				}
				continue
			}
			for _, ix := range t.indexes {
				if err := ix.commitEntry(op, ts, u); err != nil {
					t.mu.RUnlock()
					return undo, err
				}
			}
		}
		t.mu.RUnlock()
	}
	return undo, nil
}

// rollbackEffects undoes a failed commit's landed effects, newest table
// first. Caller still holds txnMu and commitGate shared — the same
// section the effects landed under, so neither a checkpoint nor GC can
// observe the intermediate state, and the in-flight readers that could
// are handled below.
//
// Per table the reversal is index entries first (fresh entries deleted,
// clobbered unique entries restored to the version they pointed at),
// then heap rows and version metas under one exclusive vers.mu section.
// A failed commit's new version is not erased from the version store
// but tombstoned dead-at-birth ({born: ts, dead: ts, prev:
// tombstonePrev}): born == dead fails the visibility rule for every
// snapshot and for latest reads, so a heap scanner that copied the
// row's bytes before the rollback still judges it invisible — the GC
// tombstone argument exactly. Staged update/delete targets get their
// dead stamp cleared, restoring the pre-commit meta (markDead preserved
// born and prev).
func (tx *Txn) rollbackEffects(ts uint64, undo []*tableUndo) {
	e := tx.e
	for k := len(undo) - 1; k >= 0; k-- {
		u := undo[k]
		tt := u.tt
		t := tt.t
		t.mu.RLock()
		for j := len(u.entries) - 1; j >= 0; j-- {
			eu := &u.entries[j]
			if eu.restore {
				eu.ix.tree.Insert(eu.key, eu.val)
			} else {
				eu.ix.tree.Delete(eu.key)
			}
			if eu.ix.cache != nil {
				eu.ix.cache.NotifyUpdate(eu.key)
			}
		}
		vs := &t.vers
		vs.mu.Lock()
		for i := 0; i < u.heapOps; i++ {
			op := &tt.ops[i]
			switch op.kind {
			case BatchInsert, BatchUpdate:
				// Delete-then-tombstone inside one exclusive section: a
				// scanner that copied the bytes checks the meta after this
				// lock and sees dead-at-birth; nothing chains to newRID
				// (its own prev is overwritten), so slot reuse is safe.
				t.file.Delete(op.newRID)
				vs.set(op.newRID, versionMeta{born: ts, dead: ts, prev: tombstonePrev})
				if op.kind == BatchUpdate {
					m := vs.m[op.rid]
					m.dead = 0
					vs.set(op.rid, m)
				}
			case BatchDelete:
				m := vs.m[op.rid]
				m.dead = 0
				vs.set(op.rid, m)
			}
		}
		vs.mu.Unlock()
		t.rows.Add(-u.delta)
		e.deadVersions.Add(int64(-u.dead))
	}
}

// commitEntry installs the index entry for a staged insert/update's new
// version, recording the reversal in u. Old entries are left in place
// for snapshot readers (GC unlinks them); unique indexes chain through
// a dead previous holder of the key so per-key time travel keeps
// working across key reuse.
func (ix *Index) commitEntry(op *txnOp, ts uint64, u *tableUndo) error {
	newKey, err := ix.entryKey(op.row, op.newRID)
	if err != nil {
		return err
	}
	if !ix.unique {
		if _, err := ix.tree.Insert(newKey, op.newRID.Pack()); err != nil {
			return err
		}
		u.entries = append(u.entries, entryUndo{ix: ix, key: newKey})
		if ix.cache != nil {
			ix.cache.NotifyUpdate(newKey)
		}
		return nil
	}
	var oldKey []byte
	if op.kind == BatchUpdate {
		if oldKey, err = ix.entryKey(op.oldRow, op.rid); err != nil {
			return err
		}
		if string(oldKey) == string(newKey) {
			// Key unchanged: the entry upserts to the newest version and
			// snapshot readers hop the prev chain back. Undo restores the
			// entry to the superseded version it pointed at.
			if _, err := ix.tree.Insert(newKey, op.newRID.Pack()); err != nil {
				return err
			}
			u.entries = append(u.entries, entryUndo{ix: ix, key: newKey, val: op.rid.Pack(), restore: true})
			if ix.cache != nil {
				ix.cache.NotifyUpdate(newKey)
			}
			return nil
		}
	}
	// Fresh claim of this key. If a dead previous holder still occupies
	// the entry, clobber it and chain to it — the commit pre-check
	// guarantees a live occupant cannot be here.
	if v, found, serr := ix.tree.Search(newKey); serr != nil {
		return serr
	} else if found {
		prev := storage.UnpackRID(v)
		vs := &ix.table.vers
		vs.mu.Lock()
		m := vs.m[op.newRID]
		m.born = ts
		m.prev = prev.Pack()
		vs.set(op.newRID, m)
		vs.mu.Unlock()
		if _, err := ix.tree.Insert(newKey, op.newRID.Pack()); err != nil {
			return err
		}
		u.entries = append(u.entries, entryUndo{ix: ix, key: newKey, val: v, restore: true})
	} else {
		if _, err := ix.tree.InsertIfAbsent(newKey, op.newRID.Pack()); err != nil {
			return err
		}
		u.entries = append(u.entries, entryUndo{ix: ix, key: newKey})
	}
	if ix.cache != nil {
		ix.cache.NotifyUpdate(newKey)
		if oldKey != nil {
			ix.cache.NotifyUpdate(oldKey)
		}
	}
	return nil
}

// encodeTxnRecord builds the recTxn payload: the commit timestamp and
// each touched table's actions in the recBatch sub-format. The actions
// encode the transaction's FINAL, post-GC physical state — updates as
// remove-old/put-new, deletes as removals, obsolete index entries as
// deletions — so replay flattens the version history away entirely (no
// snapshot survives a crash, so recovered state needs none of it).
func (tx *Txn) encodeTxnRecord(ts uint64) []byte {
	e := tx.e
	wb := e.getWALBatch("")
	defer e.putWALBatch(wb)
	payload := binary.AppendUvarint(nil, ts)
	payload = binary.AppendUvarint(payload, uint64(len(tx.tables)))
	for _, tt := range tx.tables {
		t := tt.t
		wb.reset(t.name)
		for i := range tt.ops {
			op := &tt.ops[i]
			switch op.kind {
			case BatchInsert:
				wb.put(op.newRID, op.newRID, op.rec)
			case BatchUpdate:
				wb.put(op.rid, op.newRID, op.rec)
			case BatchDelete:
				wb.del(op.rid)
			}
		}
		t.mu.RLock()
		for i := range tt.ops {
			op := &tt.ops[i]
			for _, ix := range t.indexes {
				switch op.kind {
				case BatchInsert:
					if key, err := ix.entryKey(op.row, op.newRID); err == nil {
						wb.idx(ix.name, btree.RunEntry{Key: key, Value: op.newRID.Pack(), Op: btree.RunUpsert})
					}
				case BatchUpdate:
					oldKey, oerr := ix.entryKey(op.oldRow, op.rid)
					newKey, nerr := ix.entryKey(op.row, op.newRID)
					if oerr != nil || nerr != nil {
						continue
					}
					if string(oldKey) != string(newKey) {
						wb.idx(ix.name, btree.RunEntry{Key: oldKey, Op: btree.RunDelete})
					}
					wb.idx(ix.name, btree.RunEntry{Key: newKey, Value: op.newRID.Pack(), Op: btree.RunUpsert})
				case BatchDelete:
					if key, err := ix.entryKey(op.oldRow, op.rid); err == nil {
						wb.idx(ix.name, btree.RunEntry{Key: key, Op: btree.RunDelete})
					}
				}
			}
		}
		t.mu.RUnlock()
		sub := wb.payload()
		payload = binary.AppendUvarint(payload, uint64(len(sub)))
		payload = append(payload, sub...)
	}
	return payload
}

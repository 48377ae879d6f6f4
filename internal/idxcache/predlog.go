package idxcache

import (
	"bytes"
	"sync"
	"sync/atomic"
)

// PredLog is the in-memory invalidation log of Section 2.1.2. When a
// tuple is updated, a predicate that uniquely identifies it — here, its
// exact index key — is appended. When an index page is read during
// normal query execution, pending predicates falling inside the page's
// key range force the page's cache to be zeroed. If the log grows past
// its threshold, the owner escalates: bump CSNidx (invalidating every
// page cache at once) and clear the log.
type PredLog struct {
	mu      sync.Mutex
	keys    [][]byte
	baseSeq uint32 // sequence number of keys[0] minus one
	// headSeq is the sequence number of the latest appended predicate.
	// It is written under mu, after the predicate is in keys, and read
	// without it: every Prepare (one per point lookup and per scanned
	// row) checks it, so a lock here would serialize all readers.
	headSeq atomic.Uint32
	limit   int
}

// NewPredLog creates a log that reports escalation beyond limit pending
// predicates. limit ≤ 0 means "escalate immediately on any append"
// (i.e. fine-grained invalidation disabled — the A2 ablation baseline).
func NewPredLog(limit int) *PredLog {
	return &PredLog{limit: limit}
}

// Append records the predicate and reports whether the log has
// exceeded its threshold and should be escalated to a full CSN bump.
func (p *PredLog) Append(key []byte) (escalate bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.keys = append(p.keys, append([]byte(nil), key...))
	p.headSeq.Add(1)
	return len(p.keys) > p.limit
}

// HeadSeq returns the sequence number of the newest predicate. A page
// whose AppliedSeq equals HeadSeq has nothing pending.
func (p *PredLog) HeadSeq() uint32 { return p.headSeq.Load() }

// Pending returns the number of buffered predicates.
func (p *PredLog) Pending() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.keys)
}

// MatchRange reports whether any predicate with sequence number greater
// than afterSeq falls within [min, max] (inclusive). Pages call this
// with their key range to decide whether their cache must be zeroed.
func (p *PredLog) MatchRange(afterSeq uint32, min, max []byte) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	// keys[i] has sequence baseSeq+1+i.
	start := 0
	if afterSeq > p.baseSeq {
		start = int(afterSeq - p.baseSeq)
	}
	for i := start; i < len(p.keys); i++ {
		k := p.keys[i]
		if bytes.Compare(k, min) >= 0 && bytes.Compare(k, max) <= 0 {
			return true
		}
	}
	return false
}

// Clear empties the log (after a CSN escalation). Sequence numbers keep
// increasing across Clear so stale AppliedSeq values stay comparable.
func (p *PredLog) Clear() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.baseSeq = p.headSeq.Load()
	p.keys = p.keys[:0]
}

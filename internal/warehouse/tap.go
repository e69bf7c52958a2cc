package warehouse

// The post-commit event tap is the single ordered hook point on the ingest
// path. Append and AppendBatch dispatch to it exactly once per committed
// sub-batch, while still holding the shard write lock, after the two commit
// steps have both happened: the WAL write (durable mode) and shard
// visibility (appendLocked). Everything that used to ride inline on the
// append paths — today the spiller's hot-budget bookkeeping and the
// materialized views' delta maintenance — consumes the same tap, in
// attachment order, instead of being wired into each append call site
// separately.
//
// Running under the shard lock is what gives consumers their ordering
// guarantee: taps for one shard fire serially, in commit order, and a
// consumer that replaces its state under the same lock with a scan taken
// at the shard's seq cut plus the tail above it (the view handoff,
// View.install) observes each event exactly once. The flip side
// is the contract below: onCommit must be brief and must never take another
// shard's lock, the views registry lock, or block on I/O.

// tapConsumer is one consumer of the post-commit tap.
type tapConsumer interface {
	// onCommit observes one committed batch of events on shard s. It runs
	// under s.mu (write); evs is only valid for the duration of the call
	// and must not be retained. Implementations must not acquire other
	// shard locks or block.
	onCommit(w *Warehouse, s *shard, evs []Event)
}

// dispatchTapLocked fires every attached tap for one committed batch.
// Caller holds s.mu (write).
func (s *shard) dispatchTapLocked(w *Warehouse, evs []Event) {
	for _, tc := range s.taps {
		tc.onCommit(w, s, evs)
	}
}

// attachTapLocked subscribes a consumer to this shard's commits. Caller
// holds s.mu (write); a consumer attached mid-stream sees every commit
// after — and none before — the attach.
func (s *shard) attachTapLocked(tc tapConsumer) {
	s.taps = append(s.taps, tc)
}

// detachTapLocked removes a consumer (identity match). Caller holds s.mu
// (write). No-op when absent, so teardown paths can call it uncondition-
// ally.
func (s *shard) detachTapLocked(tc tapConsumer) {
	for i, cur := range s.taps {
		if cur == tc {
			s.taps = append(s.taps[:i], s.taps[i+1:]...)
			return
		}
	}
}

// spillTap is the spiller's tap: after each commit it checks the shard's
// hot-segment budget and enqueues sealed segments for background spilling.
// Attached by Open on every shard of a durable warehouse; in-memory
// warehouses never attach it (maybeSpillLocked would no-op anyway).
type spillTap struct{}

func (spillTap) onCommit(w *Warehouse, s *shard, evs []Event) {
	s.maybeSpillLocked(w)
}

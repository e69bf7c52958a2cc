package warehouse

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"streamloader/internal/ops"
	"streamloader/internal/partial"
)

// This file implements materialized aggregate views: standing AggQuery
// results maintained incrementally at ingest and pushed to subscribers,
// so a dashboard refresh costs a channel receive instead of a history
// re-scan.
//
// A view's taps go on at registration and come off at teardown; in between
// each committed event folds into the owning shard's partial store
// (partial.State merges are order-insensitive for the integral case and
// identical to Aggregate's arithmetic in general). History enters a store
// through one handoff, View.install: a scan under the shard's read lock —
// the one that answers a one-shot Aggregate — or a durable warehouse's
// checkpoint (view_ckpt.go, what a re-registration resumes from instead of
// re-scanning history) is taken at the shard's seqNext, an exclusive commit
// cut; under the write lock, which holds the tap still, install folds the
// tail at and above the cut and swaps the store in. Every event is in
// exactly one of the scan, the tail and the tap. A snapshot is the same
// shard-ordered merge Aggregate performs, so a view's rows equal a fresh
// Aggregate of the same query at every quiescent point.
//
// Partials live in a partial.Store: per-time-bucket frames keyed by the
// aligned bucket start (one zero frame when the query has no bucket).
// The frame index is what makes removal cheap. A retention cut deletes
// every frame strictly below the cut's bucket whole — no rescan, any
// aggregate — and patches only the single boundary frame: COUNT/SUM/AVG
// subtract the evicted events' exact contribution, while MIN/MAX (which
// cannot un-observe an extremum) queue a rescan of that one bucket, not
// of history (view_trim.go). A windowed view (AggQuery.Window) drops
// expired frames the same way on the publisher's clock, so expiry never
// rescans either. Only an unbucketed MIN/MAX view, or a cut whose evicted
// events are not in memory to subtract, still pays a full rebuild.
//
// Lock order, strictly: View.refreshMu → shard.mu → viewPart.mu,
// shard.mu → View.mu, and viewRegistry.mu → View.mu. The registry lock is
// taken while all shard locks are held (compactAll → trimViews), so nothing
// may acquire a shard lock — or block — while holding it: registration
// backfills after releasing it (the unpublished view's refreshMu, locked
// under it, cannot block), teardown detaches its taps before taking it, and
// trimViews snapshots the view list and does its patching after release.

// ErrViewClosed reports use of a view after Release/Close tore it down.
var ErrViewClosed = errors.New("warehouse: view closed")

// ErrTooManySubscribers reports a Subscribe beyond the configured cap.
var ErrTooManySubscribers = errors.New("warehouse: too many subscribers")

// ViewUpdate is one pushed snapshot. Every update carries the view's full
// current row set (sorted like Aggregate's result), so updates are
// latest-wins: a subscriber that misses intermediate updates loses
// freshness, never correctness.
type ViewUpdate struct {
	// Version increments per published snapshot of this view.
	Version uint64
	// Rows is the complete current result.
	Rows []AggRow
	// RowsJSON is Rows in wire form (AppendAggRowsJSON), encoded once per
	// snapshot by the view's publisher and shared by every subscriber's
	// copy of the update: read-only. Empty on the terminal error update.
	RowsJSON []byte
	// Resnapshot marks a snapshot that may not extend the previous one
	// monotonically: the first update, a post-rebuild update (retention
	// cut), a window expiry, or the first update after this subscriber had
	// updates shed.
	Resnapshot bool
	// Shed counts the updates dropped on this subscriber's buffer so far.
	Shed uint64
	// Err, when set, is the view's terminal error; the channel closes
	// after this update.
	Err error
}

// Subscription is one subscriber's handle on a view: a bounded channel of
// snapshots plus a Close that frees the slot. When the buffer is full the
// publisher drops the oldest queued update and marks the next delivered
// one Resnapshot — a slow consumer sheds freshness but never blocks
// ingest or other subscribers.
type Subscription struct {
	v        *View
	ch       chan ViewUpdate
	shed     uint64 // guarded by v.mu
	chClosed bool   // guarded by v.mu
	once     sync.Once
}

// Updates is the snapshot stream. It closes after a terminal update (one
// with Err set) or a Close from either side.
func (sub *Subscription) Updates() <-chan ViewUpdate { return sub.ch }

// Close detaches the subscriber, closes its channel and releases its view
// reference (the view tears down when the last reference goes).
// Idempotent; safe concurrently with the publisher.
func (sub *Subscription) Close() {
	sub.once.Do(func() {
		v := sub.v
		v.mu.Lock()
		for i, cur := range v.subs {
			if cur == sub {
				v.subs = append(v.subs[:i], v.subs[i+1:]...)
				break
			}
		}
		sub.closeChLocked()
		v.mu.Unlock()
		v.release()
	})
}

// sendLocked delivers one update, shedding the oldest queued update when
// the buffer is full. Caller holds v.mu (which serializes all sends and
// the close, so the loop terminates: only the consumer may drain
// concurrently, which only frees space).
func (sub *Subscription) sendLocked(u ViewUpdate) {
	if sub.chClosed {
		return
	}
	u.Shed = sub.shed
	for {
		select {
		case sub.ch <- u:
			return
		default:
		}
		select {
		case <-sub.ch:
			sub.shed++
		default:
		}
		u.Resnapshot = true
		u.Shed = sub.shed
	}
}

// closeChLocked closes the channel once. Caller holds v.mu.
func (sub *Subscription) closeChLocked() {
	if !sub.chClosed {
		sub.chClosed = true
		close(sub.ch)
	}
}

// viewPart is a view's per-shard state: the bucketed partial aggregates
// of the events this shard contributed. It is the view's tap consumer —
// onCommit folds committed events in — and its mutex nests inside the
// shard lock.
type viewPart struct {
	v *View

	mu    sync.Mutex
	store *partial.Store
	// conds caches the view's compiled payload condition per schema, like
	// a query-local cache but living as long as the view.
	conds condCache
}

// onCommit folds one committed batch into the shard's partial frames.
// Runs under the shard write lock (tap contract): no blocking, no other
// locks beyond p.mu. Errors park in the view's fail slot for the
// publisher — teardown needs shard locks, so it cannot run from here.
func (p *viewPart) onCommit(w *Warehouse, s *shard, evs []Event) {
	v := p.v
	matched := 0
	p.mu.Lock()
	fold := aggVisitor{p: &v.plan, store: p.store}
	for _, ev := range evs {
		ok, err := matchEvent(ev, &v.plan.Query, p.conds)
		if err == nil && ok {
			err = fold.event(ev)
			matched++
		}
		if err != nil {
			p.mu.Unlock()
			v.fail(err)
			return
		}
	}
	p.mu.Unlock()
	if matched > 0 {
		v.mutations.Add(1)
		v.pending.Add(int64(matched))
		v.wake()
	}
}

// View is one registered standing aggregate. Identical (query, policy)
// registrations share a View — the registry refcounts them — so a
// thousand dashboards watching the same aggregate cost one maintenance
// stream fanned out, not a thousand.
type View struct {
	w      *Warehouse
	plan   aggPlan
	policy ops.UpdatePolicy
	key    string
	parts  []*viewPart // one per shard, fixed at construction

	refs int // guarded by w.views.mu

	// dirty demands a full rebuild before the next snapshot (an eviction
	// whose exact contribution is unknown); mutations counts state changes
	// (folds, trims, rebuilds) so the publisher can skip no-op wakes;
	// pending counts folded events since the last publication (count
	// policy).
	dirty     atomic.Bool
	mutations atomic.Uint64
	pending   atomic.Int64

	// foldErr parks an onCommit failure for the publisher to act on.
	foldErr atomic.Pointer[viewErr]

	notify chan struct{} // cap 1: wake the publisher
	done   chan struct{} // closed when the publisher exits

	// ctx is the view's lifetime. Teardown cancels it: the publisher exits,
	// a scan in flight stops, and install and writeCheckpoint refuse.
	ctx      context.Context
	cancel   context.CancelFunc
	stopOnce sync.Once
	// refreshMu serializes installs, checkpoint writes, Rows reads and
	// teardown's detach, so a reader never merges a half-rebuilt
	// accumulator set and a checkpoint never sees a detached shard.
	// Order: refreshMu → shard.mu → viewPart.mu.
	refreshMu sync.Mutex

	// trimMu guards rescan, the set of boundary-frame starts a retention
	// cut left for MIN/MAX (or an unloadable cold drop) to re-derive. It
	// is taken with all shard locks held (trimViews), so nothing may block
	// under it.
	trimMu sync.Mutex
	rescan map[int64]time.Time

	mu      sync.Mutex
	subs    []*Subscription
	err     error // terminal; set by teardown
	version uint64
}

type viewErr struct{ err error }

func (v *View) fail(err error) {
	v.foldErr.CompareAndSwap(nil, &viewErr{err: err})
	v.wake()
}

func (v *View) takeErr() error {
	if e := v.foldErr.Load(); e != nil {
		return e.err
	}
	return nil
}

// wake nudges the publisher; never blocks.
func (v *View) wake() {
	select {
	case v.notify <- struct{}{}:
	default:
	}
}

// queueRescan records that the frame starting at start must be re-derived
// from a one-bucket scan before the next snapshot. Safe under any locks
// (trimViews calls it with every shard lock held).
func (v *View) queueRescan(start time.Time) {
	v.trimMu.Lock()
	if v.rescan == nil {
		v.rescan = map[int64]time.Time{}
	}
	v.rescan[start.UnixNano()] = start
	v.trimMu.Unlock()
}

// takeRescans drains the queued boundary rescans.
func (v *View) takeRescans() []time.Time {
	v.trimMu.Lock()
	defer v.trimMu.Unlock()
	if len(v.rescan) == 0 {
		return nil
	}
	out := make([]time.Time, 0, len(v.rescan))
	for _, t := range v.rescan {
		out = append(out, t)
	}
	v.rescan = nil
	return out
}

// pendingRescans reports whether boundary rescans are queued (checkpoints
// must not persist a frame awaiting one).
func (v *View) pendingRescans() bool {
	v.trimMu.Lock()
	defer v.trimMu.Unlock()
	return len(v.rescan) > 0
}

// viewKey canonicalizes (query, policy) for registry dedup and for the
// checkpoint identity a restart resumes by. Built field by field — never
// %v on the struct — so the Region pointer's address can not leak into
// the identity.
func viewKey(p *aggPlan, policy ops.UpdatePolicy) string {
	var b strings.Builder
	fmt.Fprintf(&b, "f=%s|fld=%s|gs=%t|gt=%t|b=%d|w=%d|mg=%d", p.Func, p.Field, p.groupSource, p.groupTheme, p.Bucket, p.Window, p.maxGroups)
	fmt.Fprintf(&b, "|from=%d|to=%d", p.From.UnixNano(), p.To.UnixNano())
	if p.Region != nil {
		fmt.Fprintf(&b, "|r=%.6f,%.6f,%.6f,%.6f", p.Region.Min.Lat, p.Region.Min.Lon, p.Region.Max.Lat, p.Region.Max.Lon)
	}
	fmt.Fprintf(&b, "|th=%s|src=%s|cond=%s|pol=%s",
		strings.Join(p.Themes, "\x1f"), strings.Join(p.Sources, "\x1f"), p.Cond, policy.String())
	return b.String()
}

// viewRegistry holds the live views keyed by canonical (query, policy).
type viewRegistry struct {
	mu sync.Mutex
	m  map[string]*View
}

// RegisterView registers a standing aggregate: validate, dedup against an
// identical live view, seed from a persisted checkpoint when one is still
// valid (folding only the events committed after it), otherwise backfill
// from a history scan, then maintain incrementally. The returned view
// holds one reference; pair with Release. The first error — invalid
// query, backfill scan failure, group-cardinality overflow — is returned
// synchronously and registers nothing.
func (w *Warehouse) RegisterView(q AggQuery, policy ops.UpdatePolicy) (*View, error) {
	p, err := q.plan()
	if err != nil {
		return nil, err
	}
	policy = policy.Normalize()
	if err := policy.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidAggQuery, err)
	}
	key := viewKey(&p, policy)

	reg := &w.views
	reg.mu.Lock()
	if reg.m == nil {
		reg.m = map[string]*View{}
	}
	if v := reg.m[key]; v != nil {
		v.refs++
		reg.mu.Unlock()
		return v, nil
	}
	ctx, cancel := context.WithCancel(context.Background())
	v := &View{
		w:      w,
		plan:   p,
		policy: policy,
		key:    key,
		parts:  make([]*viewPart, len(w.shards)),
		refs:   1,
		notify: make(chan struct{}, 1),
		done:   make(chan struct{}),
		ctx:    ctx,
		cancel: cancel,
	}
	for i := range v.parts {
		v.parts[i] = &viewPart{
			v:     v,
			store: partial.NewStore(p.Bucket),
			conds: condCache{},
		}
	}
	v.dirty.Store(true)
	// Held until the backfill is in: a same-key registrant's first Rows
	// waits for a seeded state, and teardown cannot detach before the attach.
	v.refreshMu.Lock()
	reg.m[key] = v
	reg.mu.Unlock()

	// Backfill outside the registry lock (it takes shard locks): taps on,
	// then a checkpoint resume, or else the rebuild of a still-dirty view.
	for i, s := range w.shards {
		s.mu.Lock()
		s.attachTapLocked(v.parts[i])
		s.mu.Unlock()
	}
	v.resumeLocked()
	err = v.refreshLocked()
	v.refreshMu.Unlock()
	if err != nil {
		v.teardown(err)
		return nil, err
	}
	w.recordViewDef(v)
	go v.run()
	return v, nil
}

// SubscribeOptions configures Warehouse.Subscribe.
type SubscribeOptions struct {
	// Policy is the publication schedule (zero value: per event).
	Policy ops.UpdatePolicy
	// Buffer is the subscriber channel depth (0: a small default).
	Buffer int
	// MaxSubscribers, when positive, fails the subscribe when the
	// warehouse already carries that many subscribers across all views.
	MaxSubscribers int
}

// Subscribe is the one-call path a serving layer uses: register (or share)
// the view and attach one subscriber, whose Close releases everything.
func (w *Warehouse) Subscribe(q AggQuery, opt SubscribeOptions) (*Subscription, error) {
	if opt.MaxSubscribers > 0 && w.SubscriberCount() >= opt.MaxSubscribers {
		return nil, ErrTooManySubscribers
	}
	v, err := w.RegisterView(q, opt.Policy)
	if err != nil {
		return nil, err
	}
	sub, err := v.Subscribe(opt.Buffer)
	v.Release() // the subscription holds its own reference now
	return sub, err
}

// Subscribe attaches a subscriber: an immediate full snapshot, then
// updates per the view's policy. The subscription holds a view reference
// until its Close.
func (v *View) Subscribe(buffer int) (*Subscription, error) {
	if buffer <= 0 {
		buffer = 8
	}
	rows, err := v.Rows()
	if err != nil {
		return nil, err
	}
	reg := &v.w.views
	reg.mu.Lock()
	if reg.m[v.key] != v {
		reg.mu.Unlock()
		return nil, ErrViewClosed
	}
	v.refs++
	reg.mu.Unlock()

	sub := &Subscription{v: v, ch: make(chan ViewUpdate, buffer)}
	rowsJSON := v.encodeRows(rows)
	v.mu.Lock()
	if v.err != nil {
		err := v.err
		v.mu.Unlock()
		v.release()
		return nil, err
	}
	v.subs = append(v.subs, sub)
	v.version++
	// Folds between the Rows call above and this attach are not lost:
	// they bumped mutations, so the publisher rebroadcasts a fresher full
	// snapshot to everyone, this subscriber included.
	sub.sendLocked(ViewUpdate{Version: v.version, Rows: rows, RowsJSON: rowsJSON, Resnapshot: true})
	v.mu.Unlock()
	return sub, nil
}

// Release drops one reference; the last one tears the view down.
func (v *View) Release() { v.release() }

func (v *View) release() {
	reg := &v.w.views
	reg.mu.Lock()
	v.refs--
	dead := v.refs <= 0
	if dead && reg.m[v.key] == v {
		// Unpublish under the lock so no new reference is handed out
		// between the decision and the teardown.
		delete(reg.m, v.key)
	}
	reg.mu.Unlock()
	if dead {
		// A clean last release persists the final state, so the next
		// registration of the same view resumes instead of backfilling.
		v.writeCheckpoint()
		v.teardown(nil)
	}
}

// Err returns the view's terminal error, nil while it is live.
func (v *View) Err() error {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.err
}

// Rows computes the view's current full result: rebuild first if an
// eviction invalidated the partials (and re-derive any boundary frame a
// cut left queued), then merge the per-shard frames in shard order — the
// same merge arithmetic and ordering as Aggregate, over clones so the
// live partials are never aliased. A windowed view filters expired
// frames out of the merge by the warehouse clock, so its rows never show
// a bucket older than the window even before the publisher physically
// prunes it. The whole read holds refreshMu: a rebuild clears the dirty
// flag before it installs shard by shard, so a concurrent reader that
// merely checked the flag could merge a torn mix of rebuilt and stale
// per-shard accumulators.
func (v *View) Rows() ([]AggRow, error) {
	if err := v.Err(); err != nil {
		return nil, err
	}
	v.refreshMu.Lock()
	defer v.refreshMu.Unlock()
	if err := v.refreshLocked(); err != nil {
		return nil, err
	}
	merged := map[partial.Key]*partial.State{}
	keep := v.plan.windowKeep(v.w.now())
	for _, p := range v.parts {
		p.mu.Lock()
		ok := p.store.MergeInto(merged, v.plan.maxGroups, true, keep)
		p.mu.Unlock()
		if !ok {
			return nil, errAggGroups
		}
	}
	return v.plan.rowsFromPartials(merged), nil
}

// refreshLocked rebuilds while the dirty flag is set, then re-derives any
// boundary frames a retention cut queued; the caller holds refreshMu.
// Bounded: retention churning faster than we can scan leaves work queued
// for the next call rather than looping forever.
func (v *View) refreshLocked() error {
	for i := 0; i < 16; i++ {
		if v.dirty.Load() {
			// A full rebuild re-derives every frame; rescans queued so far
			// are subsumed by it.
			v.takeRescans()
			if err := v.rebuildLocked(); err != nil {
				return err
			}
			continue
		}
		starts := v.takeRescans()
		if len(starts) == 0 {
			return nil
		}
		for _, start := range starts {
			if err := v.rescanFrameLocked(start); err != nil {
				return err
			}
		}
	}
	return nil
}

// rebuildLocked re-derives every shard's partials from a fresh scan; the
// caller holds refreshMu. The dirty flag clears before scanning: a cut
// racing the rebuild re-marks it or refuses an install, and the caller's
// loop goes again.
func (v *View) rebuildLocked() error {
	v.dirty.Store(false)
	return v.rescanLocked(&v.plan, func(p *viewPart, fold *aggVisitor) {
		p.store = partial.FromFlat(v.plan.Bucket, fold.flat)
	}, func() { v.dirty.Store(true) })
}

// rescanFrameLocked re-derives one frame — the bucket a retention cut
// partially evicted — from a scan bounded to [start, start+bucket), so a
// MIN/MAX view pays one bucket's worth of re-reading instead of a history
// rescan. The caller holds refreshMu.
func (v *View) rescanFrameLocked(start time.Time) error {
	v.w.viewBoundaryRescans.Add(1)
	q := v.plan
	q.From, q.To = start, start.Add(v.plan.Bucket)
	// Windows bound time alone: the tighter of each pair of bounds is kept.
	if !v.plan.From.IsZero() && v.plan.From.After(q.From) {
		q.From = v.plan.From
	}
	if !v.plan.To.IsZero() && v.plan.To.Before(q.To) {
		q.To = v.plan.To
	}
	return v.rescanLocked(&q, func(p *viewPart, fold *aggVisitor) {
		p.store.ReplaceFrame(start, fold.flat)
	}, func() { v.queueRescan(start) })
}

// rescanLocked scans every shard ap routes to — ap is the view's plan, or
// that plan narrowed to one bucket — with scanShards (read locks, stopped
// with the view) and installs each shard's groups with put. When a
// retention cut refuses an install it calls again, which re-queues the
// work. The caller holds refreshMu.
func (v *View) rescanLocked(ap *aggPlan, put func(*viewPart, *aggVisitor), again func()) error {
	t0 := v.w.met.viewRebuild.Start()
	defer v.w.met.viewRebuild.Since(t0)
	pl := ap.scanPlan()
	folds, cuts, _, err := scanShards(v.ctx, v.w, &pl, func() *aggVisitor {
		return &aggVisitor{p: ap, flat: map[partial.Key]*partial.State{}}
	})
	for k := 0; err == nil && k < len(folds); k++ {
		err = v.install(&pl, cuts[k], folds[k], put)
	}
	switch {
	case v.ctx.Err() != nil:
		return ErrViewClosed
	case errors.Is(err, errCutMoved):
		again()
	case err != nil:
		return err
	default:
		v.mutations.Add(1)
	}
	return nil
}

// errCutMoved is install's refusal of a fold the shard has moved past.
var errCutMoved = errors.New("warehouse: view fold predates a retention cut")

// install is the one handoff from history to the live tap. fold holds shard
// cut.shard's groups at the cut, from a scan with pl or from a checkpoint.
// Under the shard's write lock, which holds the tap still, install folds the
// tail at and above the cut into fold and has put swap it in, so every event
// is in exactly one of the fold, the tail and the tap. It refuses once the
// view has stopped (ErrViewClosed), and with errCutMoved when a retention
// cut moved the eviction count past cut.gen (the fold may hold evicted
// events) or the shard's cut is behind cut.next (a stale checkpoint). The
// caller holds refreshMu.
func (v *View) install(pl *scanPlan, cut shardCut, fold *aggVisitor, put func(*viewPart, *aggVisitor)) error {
	s, p := v.w.shards[cut.shard], v.parts[cut.shard]
	s.mu.Lock()
	defer s.mu.Unlock()
	if v.ctx.Err() != nil {
		return ErrViewClosed
	}
	if v.w.evicted.Load() != cut.gen || cut.next > s.seqNext {
		return errCutMoved
	}
	tail := pl.since(cut.next)
	if _, err := s.scan(v.ctx, &tail, fold); err != nil {
		return err
	}
	p.mu.Lock()
	put(p, fold)
	p.mu.Unlock()
	return nil
}

// pruneExpired physically drops every frame that has aged out of a
// windowed view, returning how many went. Rows already filters expired
// frames out of each merge, so this is a memory release plus the
// publisher's expiry edge detector, not a correctness gate.
func (v *View) pruneExpired() int {
	keep := v.plan.windowKeep(v.w.now())
	if keep == nil {
		return 0
	}
	n := 0
	for _, p := range v.parts {
		p.mu.Lock()
		n += p.store.DropFrames(keep)
		p.mu.Unlock()
	}
	if n > 0 {
		v.w.viewFrameDrops.Add(uint64(n))
		v.mutations.Add(1)
	}
	return n
}

// run is the view's publisher goroutine: it coalesces wakes, applies the
// update policy, computes snapshots outside every shard lock and fans
// them out. One publisher per view regardless of subscriber count, so
// per-event maintenance cost does not scale with subscribers. A windowed
// view also ticks at bucket granularity to notice frames expiring in the
// absence of ingest — expiry is bucket-granular, so a finer clock would
// buy nothing.
func (v *View) run() {
	defer close(v.done)
	var tick <-chan time.Time
	if d := v.policy.TickEvery(); d > 0 {
		t := time.NewTicker(d)
		defer t.Stop()
		tick = t.C
	}
	var wtick <-chan time.Time
	if v.plan.Window > 0 && v.plan.Bucket > 0 {
		t := time.NewTicker(v.plan.Bucket)
		defer t.Stop()
		wtick = t.C
	}
	var published uint64
	lastCkpt := v.mutations.Load()
	for {
		fromTick, expired := false, false
		select {
		case <-v.ctx.Done():
			return
		case <-v.notify:
		case <-tick:
			fromTick = true
		case <-wtick:
			if v.pruneExpired() == 0 {
				continue
			}
			expired = true
		}
		if err := v.takeErr(); err != nil {
			v.teardown(err)
			return
		}
		mut := v.mutations.Load()
		dirty := v.dirty.Load()
		if mut == published && !dirty && !expired {
			continue
		}
		pend := v.pending.Load()
		if !expired {
			switch v.policy.Mode {
			case ops.UpdateInterval:
				// Interval publications ride the ticker; a dirty view (post-
				// retention) resnapshots immediately so subscribers never hold
				// evicted state for a whole period. Window expiry takes the
				// same shortcut above.
				if !fromTick && !dirty {
					continue
				}
			case ops.UpdateCount:
				if !dirty && !v.policy.Due(pend) {
					continue
				}
			}
		}
		// Pre-read, so folds racing the snapshot keep mut != published and
		// force a re-publish: at-least-once, coalesced.
		published = mut
		v.pending.Add(-pend)
		rows, err := v.Rows()
		if err != nil {
			v.teardown(err)
			return
		}
		v.broadcast(rows, dirty || expired)
		if every := v.w.viewCkptEvery; every > 0 && mut-lastCkpt >= uint64(every) {
			v.writeCheckpoint()
			lastCkpt = mut
		}
	}
}

// broadcast fans one snapshot out to every subscriber. The rows are encoded
// here, once, in the publisher's goroutine: with the sink flushing per live
// event an event-policy view publishes per event, and what would be one
// encode per subscriber per event is one per event.
func (v *View) broadcast(rows []AggRow, resnap bool) {
	t0 := v.w.met.viewPublish.Start()
	defer v.w.met.viewPublish.Since(t0)
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.err != nil {
		return
	}
	v.version++
	if len(v.subs) == 0 {
		return
	}
	u := ViewUpdate{Version: v.version, Rows: rows, RowsJSON: v.encodeRows(rows), Resnapshot: resnap}
	for _, sub := range v.subs {
		sub.sendLocked(u)
	}
}

// encodeRows renders one snapshot's rows to their wire form, into a buffer
// sized for a typical row (~100 bytes with a bucket and both group values)
// so that a snapshot is one allocation, not a doubling series.
func (v *View) encodeRows(rows []AggRow) []byte {
	v.w.viewEncodes.Add(1)
	return AppendAggRowsJSON(make([]byte, 0, 2+128*len(rows)), rows, v.plan.Bucket > 0)
}

// teardown stops the view: publisher signalled, scans stopped, taps
// detached, registry entry removed, subscribers failed (terminal update
// when err != nil) and their channels closed. Idempotent; never waits for
// the publisher, so the publisher itself may call it, without refreshMu.
func (v *View) teardown(err error) {
	v.stopOnce.Do(func() {
		// Cancel first, so a scan holding refreshMu stops; none starts after,
		// and the detach under refreshMu waits out an install or checkpoint.
		v.cancel()
		v.refreshMu.Lock()
		for i, s := range v.w.shards {
			s.mu.Lock()
			s.detachTapLocked(v.parts[i])
			s.mu.Unlock()
		}
		v.refreshMu.Unlock()
		reg := &v.w.views
		reg.mu.Lock()
		if reg.m[v.key] == v {
			delete(reg.m, v.key)
		}
		reg.mu.Unlock()

		v.mu.Lock()
		if err == nil {
			err = ErrViewClosed
		}
		v.err = err
		for _, sub := range v.subs {
			if !errors.Is(err, ErrViewClosed) {
				v.version++
				sub.sendLocked(ViewUpdate{Version: v.version, Err: err})
			}
			sub.closeChLocked()
		}
		v.subs = nil
		v.mu.Unlock()
	})
}

// wait blocks until the publisher goroutine has exited. Only for
// teardown-initiating callers outside the publisher (closeViews, tests).
func (v *View) wait() { <-v.done }

// closeViews tears down every live view and waits for their publishers,
// leaving no view goroutine behind. A clean close (write) persists each
// view's final checkpoint first, so the next Open's registrations resume
// from it; a crash-style close skips that, exactly as a kill would.
// Subscriber channels close without a terminal error update — a
// shutdown, not a fault.
func (w *Warehouse) closeViews(write bool) {
	reg := &w.views
	reg.mu.Lock()
	views := make([]*View, 0, len(reg.m))
	for _, v := range reg.m {
		views = append(views, v)
	}
	reg.mu.Unlock()
	for _, v := range views {
		if write {
			v.writeCheckpoint()
		}
		v.teardown(nil)
		v.wait()
	}
}

// ViewCount returns the number of live registered views.
func (w *Warehouse) ViewCount() int {
	reg := &w.views
	reg.mu.Lock()
	defer reg.mu.Unlock()
	return len(reg.m)
}

// SubscriberCount returns the live subscriber total across all views.
func (w *Warehouse) SubscriberCount() int {
	reg := &w.views
	reg.mu.Lock()
	defer reg.mu.Unlock()
	n := 0
	for _, v := range reg.m {
		v.mu.Lock()
		n += len(v.subs)
		v.mu.Unlock()
	}
	return n
}

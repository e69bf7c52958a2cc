package warehouse

import (
	"sync"
	"sync/atomic"
)

// worker is one background goroutine working through a FIFO of jobs: the
// scaffold the spiller and the compactor share. Producers enqueue and return
// at once; run is called for one job at a time, with no worker lock held, so
// it is free to take shard locks and do file I/O.
//
// A job already waiting is not queued twice; one that is running may be
// queued again, and then runs again. Two ways to stop: close runs everything
// still queued first, abort drops it, as a crash would. After either,
// enqueue is a no-op.
type worker[T comparable] struct {
	run func(T)

	mu       sync.Mutex
	cond     *sync.Cond
	queue    []T
	queued   map[T]struct{} // the jobs in queue
	inFlight int
	closed   bool

	// aborted is the crash switch. The loop stops before its next job, and
	// run checks it between the steps of a job, leaving whatever on-disk
	// state a kill at that point would for recovery to sort out.
	aborted atomic.Bool

	wg sync.WaitGroup
}

func newWorker[T comparable](run func(T)) *worker[T] {
	wk := &worker[T]{run: run, queued: map[T]struct{}{}}
	wk.cond = sync.NewCond(&wk.mu)
	return wk
}

// start launches the goroutine. Separate from construction so Open can
// queue recovery's backlog before the shards are shared with it.
func (wk *worker[T]) start() {
	wk.wg.Add(1)
	go wk.loop()
}

func (wk *worker[T]) enqueue(job T) {
	wk.mu.Lock()
	defer wk.mu.Unlock()
	if _, dup := wk.queued[job]; dup || wk.closed || wk.aborted.Load() {
		return
	}
	wk.queued[job] = struct{}{}
	wk.queue = append(wk.queue, job)
	wk.cond.Broadcast()
}

func (wk *worker[T]) loop() {
	defer wk.wg.Done()
	for {
		wk.mu.Lock()
		for len(wk.queue) == 0 && !wk.closed && !wk.aborted.Load() {
			wk.cond.Wait()
		}
		if wk.aborted.Load() || len(wk.queue) == 0 {
			wk.mu.Unlock()
			return
		}
		job := wk.queue[0]
		clear(wk.queue[:1]) // the backing array must not pin the job
		wk.queue = wk.queue[1:]
		delete(wk.queued, job)
		wk.inFlight++
		wk.cond.Broadcast() // the queue shrank: wake throttled producers
		wk.mu.Unlock()

		wk.run(job)

		wk.mu.Lock()
		wk.inFlight--
		wk.cond.Broadcast() // wake drain
		wk.mu.Unlock()
	}
}

// close runs every job still queued, then stops the goroutine and waits for
// it. Idempotent.
func (wk *worker[T]) close() {
	wk.mu.Lock()
	wk.closed = true
	wk.cond.Broadcast()
	wk.mu.Unlock()
	wk.wg.Wait()
}

// abort stops the goroutine as a crash would: queued jobs are dropped, and
// the job in flight runs on only to its next aborted check. It returns once
// the goroutine has exited, so the data directory is quiescent before
// recovery reads it. Idempotent.
func (wk *worker[T]) abort() {
	wk.aborted.Store(true)
	wk.mu.Lock()
	wk.cond.Broadcast()
	wk.mu.Unlock()
	wk.wg.Wait()
}

// drain blocks until the queue is empty and no job is in flight, or the
// worker is aborted.
func (wk *worker[T]) drain() {
	wk.mu.Lock()
	for (len(wk.queue) > 0 || wk.inFlight > 0) && !wk.aborted.Load() {
		wk.cond.Wait()
	}
	wk.mu.Unlock()
}

// throttle is the producer's back-pressure wait: it blocks while more than
// maxQueue jobs are queued, until the queue shrinks or the worker stops.
func (wk *worker[T]) throttle(maxQueue int) {
	wk.mu.Lock()
	for len(wk.queue) > maxQueue && !wk.closed && !wk.aborted.Load() {
		wk.cond.Wait()
	}
	wk.mu.Unlock()
}

// depth is the number of jobs queued, not counting one in flight.
func (wk *worker[T]) depth() int {
	wk.mu.Lock()
	defer wk.mu.Unlock()
	return len(wk.queue)
}

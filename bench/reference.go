package main

import (
	"encoding/json"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// This box's speed is not constant. For stretches of minutes every number
// of a run reads 20 to 40 % worse than just before — CPU time per event
// included, so it is the processor that is slower, not a queue that is
// longer — with no process of ours to blame, and a set of ten runs that
// meets such a stretch spreads by 20 to 40 % (NOISE.md has the plain medians
// of the same runs beside the reported ones). A stretch outlasts a run, so
// longer phases and medians within a run do not help. So the driver measures
// the box beside the system: referenceKernel, a fixed piece of work that
// uses nothing of this repository, runs every referencePeriod on a thread
// of its own for the whole run and is timed in that thread's CPU
// time, which preemption by the child does not touch. The box factor over a
// timed unit — the setup, an ingest round, the query phase — is the mean
// kernel time over the unit divided by referenceKernelMS; the unit's
// duration is divided by it and its rate multiplied by it, i.e. reported as
// a box on which the kernel takes referenceKernelMS would have measured it.
// The kernel must run while the unit does: an idle box clocks down, and a
// reading taken in the gaps between units tracks the units poorly.
//
// A change to the repository's code does not change the kernel, so it moves
// a reported metric by the factor it moves the measured one. The kernel
// costs the child 5 % of one core, the same on every commit.

// referenceKernelMS is what the kernel reads beside a quiet run on the
// 2-core box the committed numbers were taken on. It only sets the scale, so
// that reported values read like measured ones; ratios between runs do not
// depend on it.
const referenceKernelMS = 1.2

const referencePeriod = 20 * time.Millisecond

type referenceEvent struct {
	Time   string         `json:"time"`
	Value  float64        `json:"value"`
	Source string         `json:"source"`
	Attrs  map[string]any `json:"attrs"`
}

// referenceKernel is about a millisecond of what the system under test
// spends its time on: allocation, a map, a sort, JSON both ways.
func referenceKernel() {
	evs := make([]referenceEvent, 0, 400)
	byKey := map[string]int{}
	for i := 0; i < 400; i++ {
		src := "s-" + strconv.Itoa(i%8)
		byKey[src+strconv.Itoa(i)] = i
		evs = append(evs, referenceEvent{Time: "2016-03-15T00:00:00Z", Value: float64(i*7919%1000) / 10,
			Source: src, Attrs: map[string]any{"a": i, "b": src}})
	}
	sort.Slice(evs, func(i, j int) bool { return evs[i].Value < evs[j].Value })
	data, err := json.Marshal(evs)
	if err != nil {
		panic(err)
	}
	var back []referenceEvent
	if err := json.Unmarshal(data, &back); err != nil || len(back) != len(byKey) {
		panic("bench: reference kernel lost events")
	}
}

// threadCPU is the CPU time the calling thread has used, from
// clock_gettime(CLOCK_THREAD_CPUTIME_ID): getrusage(RUSAGE_THREAD) counts in
// scheduler ticks, which is too coarse for a millisecond.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(errno)
	}
	return time.Duration(ts.Nano())
}

// boxReference is the kernel's readings over one run.
type boxReference struct {
	mu   sync.Mutex
	at   []time.Time
	ms   []float64
	quit chan struct{}
	done chan struct{}
}

func startReference() *boxReference {
	b := &boxReference{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(b.done)
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		pause := referencePeriod
		for {
			select {
			case <-b.quit:
				return
			case <-time.After(pause):
			}
			at, c0 := time.Now(), threadCPU()
			referenceKernel()
			ms := float64(threadCPU()-c0) / 1e6
			// At most a twentieth of a core, however slow the kernel is
			// (under the race detector, ten times slower).
			pause = max(referencePeriod, 20*time.Since(at))
			b.mu.Lock()
			b.at, b.ms = append(b.at, at), append(b.ms, ms)
			b.mu.Unlock()
		}
	}()
	return b
}

func (b *boxReference) stop() {
	close(b.quit)
	<-b.done
}

// factor is the box factor over [from, to]: above 1 on a slow box. A unit
// too short to hold a reading (the smoke test's) takes the run's so far.
func (b *boxReference) factor(from, to time.Time) float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	lo := sort.Search(len(b.at), func(i int) bool { return !b.at[i].Before(from) })
	hi := sort.Search(len(b.at), func(i int) bool { return b.at[i].After(to) })
	if lo >= hi {
		lo, hi = 0, len(b.at)
	}
	if lo >= hi {
		return 1
	}
	return mean(b.ms[lo:hi]) / referenceKernelMS
}

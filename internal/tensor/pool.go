package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Shared worker pool behind every parallel kernel in this package.
//
// Determinism contract: ParallelFor partitions [0, n) into contiguous
// blocks and every index is processed by exactly one block, so a kernel
// whose per-index computation does not depend on the partition produces
// bit-identical results at any worker count. All kernels in this package
// (MatMul, Gemm, GemmTA, GemmTB and the nn loops built on ParallelFor)
// are written row-owned in exactly that way: each output row receives
// its floating-point additions in the same order regardless of how rows
// are grouped into blocks.
//
// The pool is a fixed set of GOMAXPROCS−1 helper goroutines draining a
// shared task queue; submission never blocks (a chunk whose submission
// would block runs inline on the caller), so concurrent ParallelFor
// callers — e.g. experiment specs running under the scheduler's own
// pool — share the helpers without deadlock. ParallelFor bodies must not
// call ParallelFor recursively; every kernel here is a leaf loop.
//
// A call forks only onto idle workers: it splits into Workers() minus
// the number of other ParallelFor calls in progress, and never fewer
// than one block. Each call in progress occupies a core with its
// calling goroutine, so when as many goroutines run kernels as there
// are cores — the compute engines of a training session — each runs
// its kernels inline instead of queueing blocks behind the same busy
// helpers and then waiting for them. Under the determinism contract the
// block count changes only wall-clock time, never a result.

// workerTarget is the upper bound on the blocks ParallelFor splits work
// into. 0 means "use GOMAXPROCS at call time".
var workerTarget atomic.Int32

// inFlight counts the ParallelFor calls in progress.
var inFlight atomic.Int32

// SetWorkers sets the kernel parallelism: the upper bound on the row
// blocks each parallel kernel is split into (fewer when other kernels
// are running, see above). n <= 0 resets to GOMAXPROCS. Results are
// bit-identical at any setting; only wall-clock changes. Safe to call
// concurrently with running kernels (takes effect on subsequent calls).
func SetWorkers(n int) {
	if n < 0 {
		n = 0
	}
	workerTarget.Store(int32(n))
}

// Workers returns the current kernel parallelism bound.
func Workers() int {
	if w := int(workerTarget.Load()); w > 0 {
		return w
	}
	return runtime.GOMAXPROCS(0)
}

var (
	poolOnce  sync.Once
	poolTasks chan task
	// waitGroups recycles ParallelFor's per-call WaitGroup, which the
	// helpers reach through the queue and so would otherwise be a heap
	// allocation per call.
	waitGroups = sync.Pool{New: func() any { return new(sync.WaitGroup) }}
)

// task is one block of a ParallelFor call, queued by value so that
// dispatching it allocates nothing.
type task struct {
	body   func(lo, hi int)
	lo, hi int
	wg     *sync.WaitGroup
}

func (t task) run() {
	t.body(t.lo, t.hi)
	t.wg.Done()
}

// ensurePool starts the helper goroutines on first use. GOMAXPROCS−1
// helpers plus one submitting goroutine saturate the machine without
// oversubscribing it; more submitters in progress fork onto fewer
// helpers each (see ParallelFor).
func ensurePool() {
	poolOnce.Do(func() {
		helpers := runtime.GOMAXPROCS(0) - 1
		if helpers < 0 {
			helpers = 0
		}
		// Queue capacity scales with (and vanishes at zero) helpers: a
		// task may only be parked if some helper will drain it;
		// otherwise the non-blocking submit falls through and the chunk
		// runs on the caller.
		poolTasks = make(chan task, 2*helpers)
		for i := 0; i < helpers; i++ {
			go func() {
				for t := range poolTasks {
					t.run()
				}
			}()
		}
	})
}

// ParallelFor runs body over [0, n) split into contiguous blocks, one
// block per idle worker, and returns when all blocks are done. grain is
// the minimum block size worth a dispatch; work below 2*grain runs
// inline, as does every call made while Workers()−1 others are in
// progress. body(lo, hi) must touch only state owned by indexes in
// [lo, hi).
func ParallelFor(n, grain int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if grain < 1 {
		grain = 1
	}
	others := int(inFlight.Add(1)) - 1
	defer inFlight.Add(-1)
	w := Workers() - others
	if maxW := n / grain; w > maxW {
		w = maxW
	}
	if w <= 1 {
		body(0, n)
		return
	}
	ensurePool()
	wg := waitGroups.Get().(*sync.WaitGroup)
	wg.Add(w - 1)
	for t := 1; t < w; t++ {
		tk := task{body: body, lo: t * n / w, hi: (t + 1) * n / w, wg: wg}
		select {
		case poolTasks <- tk:
		default:
			tk.run() // queue full: run on the caller rather than block
		}
	}
	body(0, n/w)
	wg.Wait()
	waitGroups.Put(wg)
}

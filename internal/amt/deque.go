package amt

import (
	"sync"
	"sync/atomic"
	"unsafe"
)

// wsDeque is a Chase–Lev work-stealing deque (Chase & Lev, "Dynamic
// Circular Work-Stealing Deque", SPAA'05) specialized for Task values.
//
// Exactly one goroutine — the owner — may call push and pop; any number of
// goroutines may call steal concurrently. The owner works LIFO at the
// bottom (cache locality, as in HPX-5's default scheduler); thieves take
// FIFO from the top. The only synchronization is the atomic top/bottom
// indexes: push and the common pop path are wait-free, and a
// compare-and-swap on top is needed only on the racy last-element pop and
// on every steal. Go's sync/atomic operations are sequentially
// consistent, which supplies the fences the original algorithm requires.
//
// A Task is a func value, which the gc toolchain represents as a single
// pointer (to the code/closure object), so ring slots store that pointer
// directly and slot accesses are single atomic pointer operations; the
// speculative slot read a losing thief performs is a defined (and
// discarded) atomic load rather than a data race.
//
// Slot lifetime: a slot the owner pops is cleared (so drained deques do
// not retain task closures — the retention bug the old slice-based lanes
// had, where steal's slice re-heading grew the backing array without
// bound). In the multi-element pop path the Chase–Lev protocol makes the
// slot unreachable to thieves — a thief that read top == b must then read
// bottom <= b and give up — so a plain store suffices there. A stolen
// slot cannot be cleared by the thief (the owner may already be reusing
// it once top advances), so it keeps its reference until the index wraps;
// that window is bounded by the ring capacity.
type wsDeque struct {
	bottom atomic.Int64 // next push index; written only by the owner
	top    atomic.Int64 // next steal index; CAS by thieves and racy pop
	buf    atomic.Pointer[taskRing]

	// freeBound is an owner-private lower bound on top+capacity: while
	// bottom < freeBound the ring provably has room and push can skip
	// reading top (top only moves forward). Refreshed when exhausted.
	freeBound int64
}

// taskRing is one power-of-two circular buffer generation. Grown rings are
// replaced, never mutated in place, so thieves holding the old generation
// still read valid slots for the indexes they were published with.
type taskRing struct {
	mask int64
	slot []unsafe.Pointer // funcval pointers, accessed via sync/atomic
}

const initialRingSize = 64

// taskToPtr and ptrToTask convert between a Task func value and its
// single-pointer representation. The conversion keeps the closure visible
// to the garbage collector: unsafe.Pointer slots are scanned as pointers.
func taskToPtr(t Task) unsafe.Pointer {
	return *(*unsafe.Pointer)(unsafe.Pointer(&t))
}

func ptrToTask(p unsafe.Pointer) Task {
	return *(*Task)(unsafe.Pointer(&p))
}

func newTaskRing(n int64) *taskRing {
	return &taskRing{mask: n - 1, slot: make([]unsafe.Pointer, n)}
}

func (r *taskRing) get(i int64) Task {
	p := atomic.LoadPointer(&r.slot[i&r.mask])
	if p == nil {
		return nil
	}
	return ptrToTask(p)
}

func (r *taskRing) put(i int64, t Task) {
	atomic.StorePointer(&r.slot[i&r.mask], taskToPtr(t))
}

// grow returns a ring of twice the capacity holding the live window
// [top, bottom). Called only by the owner.
func (r *taskRing) grow(top, bottom int64) *taskRing {
	nr := newTaskRing(2 * int64(len(r.slot)))
	for i := top; i < bottom; i++ {
		nr.put(i, r.get(i))
	}
	return nr
}

func (d *wsDeque) init() {
	d.buf.Store(newTaskRing(initialRingSize))
}

// push adds a task at the bottom. Owner only. Allocation-free except when
// the ring must grow (and the ring never shrinks, so steady-state churn at
// any live size the deque has already seen does not allocate).
//
//dashmm:noalloc
func (d *wsDeque) push(t Task) {
	b := d.bottom.Load()
	r := d.buf.Load()
	if b >= d.freeBound {
		top := d.top.Load()
		if b-top >= int64(len(r.slot)) {
			r = r.grow(top, b)
			d.buf.Store(r)
		}
		d.freeBound = top + int64(len(r.slot))
	}
	r.put(b, t)
	d.bottom.Store(b + 1)
}

// pop removes the most recently pushed task. Owner only.
//
//dashmm:noalloc
func (d *wsDeque) pop() (Task, bool) {
	// Empty fast path with no stores: bottom is owner-written and top only
	// advances, so bottom <= top means empty for good until the next push.
	// This keeps polling an idle lane (the usual state of the high-priority
	// deque) down to two plain loads instead of the full racy decrement.
	if d.bottom.Load() <= d.top.Load() {
		return nil, false
	}
	b := d.bottom.Load() - 1
	r := d.buf.Load()
	d.bottom.Store(b)
	t := d.top.Load()
	if b < t {
		// Empty: restore the canonical empty state bottom == top.
		d.bottom.Store(t)
		return nil, false
	}
	task := r.get(b)
	if b > t {
		// More than one element: no thief can reach index b (it would
		// have to observe top == b and then bottom > b, which the
		// sequentially consistent protocol forbids), so the slot is
		// exclusively ours — a plain clear is race-free.
		//lint:ignore atomicfield Chase–Lev multi-element pop: thieves provably cannot reach this slot, plain clear is part of the published algorithm.
		r.slot[b&r.mask] = nil
		return task, true
	}
	// Last element: race thieves for it via top. Losing thieves may still
	// load the slot speculatively, so this clear must stay atomic.
	won := d.top.CompareAndSwap(t, t+1)
	d.bottom.Store(t + 1)
	if !won {
		return nil, false
	}
	atomic.StorePointer(&r.slot[b&r.mask], nil)
	return task, true
}

// steal removes the oldest task. Safe for any goroutine. A failed CAS
// (lost race with the owner or another thief) reports false so the caller
// can move on to the next victim rather than spin.
//
//dashmm:noalloc
func (d *wsDeque) steal() (Task, bool) {
	t := d.top.Load()
	b := d.bottom.Load()
	if t >= b {
		return nil, false
	}
	r := d.buf.Load()
	task := r.get(t)
	if !d.top.CompareAndSwap(t, t+1) {
		return nil, false
	}
	return task, true
}

// size is an owner-accurate, thief-approximate element count.
func (d *wsDeque) size() int64 {
	n := d.bottom.Load() - d.top.Load()
	if n < 0 {
		return 0
	}
	return n
}

// capacity reports the current ring capacity (for the retention tests).
func (d *wsDeque) capacity() int {
	return len(d.buf.Load().slot)
}

// inbox is the multi-producer side entrance of a worker: Locality.Spawn,
// parcel delivery and LCO continuations arrive here from goroutines that
// do not own the worker's deques. The owner drains it into its lock-free
// deques before popping; idle thieves may take single tasks with a
// non-blocking TryLock so an inbox backlog behind a busy owner cannot
// starve the locality.
//
// Backing arrays are recycled: the owner swaps in spare buffers on drain
// and clears task references before reuse, so steady-state submission is
// allocation-free and nothing is retained after a drain.
type inbox struct {
	mu     sync.Mutex
	n      atomic.Int64 // high + normal length, for lock-free empty checks
	high   []Task       // guarded by mu
	normal []Task       // guarded by mu
}

// add enqueues a task.
//
//dashmm:noalloc
func (q *inbox) add(t Task, high bool) {
	q.mu.Lock()
	if high {
		q.high = append(q.high, t)
	} else {
		q.normal = append(q.normal, t)
	}
	q.n.Add(1)
	q.mu.Unlock()
}

// drain moves every queued task into the worker's own deques (high lane
// first), swapping the inbox buffers with the worker's cleared spares.
// Returns whether any task was moved.
//
//dashmm:noalloc
func (q *inbox) drain(w *Worker) bool {
	if q.n.Load() == 0 {
		return false
	}
	q.mu.Lock()
	hi, lo := q.high, q.normal
	q.high, q.normal = w.spareHigh[:0], w.spareNormal[:0]
	q.n.Store(0)
	q.mu.Unlock()
	for _, t := range hi {
		w.high.push(t)
	}
	for _, t := range lo {
		w.normal.push(t)
	}
	for i := range hi {
		hi[i] = nil
	}
	for i := range lo {
		lo[i] = nil
	}
	w.spareHigh, w.spareNormal = hi[:0], lo[:0]
	return len(hi)+len(lo) > 0
}

// steal takes one task (preferring the high lane, from the tail — the
// inbox carries no ordering promise) without blocking. Used by thieves
// after every victim deque came up empty.
//
//dashmm:noalloc
func (q *inbox) steal() (Task, bool) {
	if q.n.Load() == 0 {
		return nil, false
	}
	if !q.mu.TryLock() {
		return nil, false
	}
	defer q.mu.Unlock()
	if n := len(q.high); n > 0 {
		t := q.high[n-1]
		q.high[n-1] = nil
		q.high = q.high[:n-1]
		q.n.Add(-1)
		return t, true
	}
	if n := len(q.normal); n > 0 {
		t := q.normal[n-1]
		q.normal[n-1] = nil
		q.normal = q.normal[:n-1]
		q.n.Add(-1)
		return t, true
	}
	return nil, false
}

package sim

import "sort"

// heapQueue is the kernel's event queue as it was before the delay
// FIFOs: every event on one 4-ary min-heap of slot indices, ordered by
// (at, seq). It is kept verbatim as the oracle for Kernel's heap-plus-
// FIFOs queue; heapKernel runs the kernel's event loop on it.
type heapQueue struct {
	pool []heapRecord
	heap []int32
}

// heapRecord is heapKernel's event slot. It keeps two callback fields,
// a closure for Schedule or a function and argument for ScheduleFn
// (exactly one set), so the oracle does not share Kernel's
// single-shape dispatch through callClosure.
type heapRecord struct {
	at    Time
	seq   uint64
	fn    func()
	fnArg func(any)
	arg   any
	label string
	gen   uint32
	state uint8
}

// heapLess orders slots by (at, seq); seq is unique, so the order is
// total and every correct heap pops the exact same sequence — which is
// what keeps runs bit-reproducible across queue implementations.
func (q *heapQueue) heapLess(a, b int32) bool {
	ra, rb := &q.pool[a], &q.pool[b]
	if ra.at != rb.at {
		return ra.at < rb.at
	}
	return ra.seq < rb.seq
}

// heapPush appends slot and sifts it up. 4-ary layout: the children of
// node i are 4i+1..4i+4, its parent (i-1)/4. The wider node trades a
// slightly costlier sift-down for half the tree height, which wins on
// modern cores because the four-child minimum scan stays in one cache
// line of the index slice. Lazy cancellation means slots never leave
// the heap from the middle, so no position tracking is needed.
func (q *heapQueue) heapPush(slot int32) {
	q.heap = append(q.heap, slot)
	q.siftUp(len(q.heap) - 1)
}

// heapPopRoot removes the minimum slot from the heap (the caller has
// already read q.heap[0]).
func (q *heapQueue) heapPopRoot() {
	n := len(q.heap) - 1
	last := q.heap[n]
	q.heap = q.heap[:n]
	if n > 0 {
		q.heap[0] = last
		q.siftDown(0)
	}
}

func (q *heapQueue) siftUp(i int) {
	h := q.heap
	moved := h[i]
	for i > 0 {
		parent := (i - 1) / 4
		if !q.heapLess(moved, h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = moved
}

func (q *heapQueue) siftDown(i int) {
	h := q.heap
	n := len(h)
	moved := h[i]
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		best := first
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if q.heapLess(h[c], h[best]) {
				best = c
			}
		}
		if !q.heapLess(h[best], moved) {
			break
		}
		h[i] = h[best]
		i = best
	}
	h[i] = moved
}

// heapKernel is the reference event loop: Kernel's pooled slots, lazy
// cancellation, tickers and samplers, with every event on heapQueue. It
// draws no randomness, so its State reports zero draws.
type heapKernel struct {
	heapQueue
	now   Time
	free  []int32
	live  int
	seq   uint64
	steps uint64
	seed  int64

	samplers []*sampler
}

// heapEvent is a heapKernel event handle: a slot and its generation.
type heapEvent struct {
	slot int32
	gen  uint32
}

func newHeapKernel(seed int64) *heapKernel { return &heapKernel{seed: seed} }

func (k *heapKernel) alloc(at Time, label string) int32 {
	var slot int32
	if n := len(k.free); n > 0 {
		slot = k.free[n-1]
		k.free = k.free[:n-1]
	} else {
		k.pool = append(k.pool, heapRecord{})
		slot = int32(len(k.pool) - 1)
	}
	k.seq++
	r := &k.pool[slot]
	r.at, r.seq, r.label, r.state = at, k.seq, label, recPending
	k.live++
	k.heapPush(slot)
	return slot
}

func (k *heapKernel) release(slot int32) {
	r := &k.pool[slot]
	r.fn, r.fnArg, r.arg, r.label = nil, nil, nil, ""
	r.state = recFree
	r.gen++
	k.free = append(k.free, slot)
}

func (k *heapKernel) Schedule(d Time, label string, fn func()) heapEvent {
	if d < 0 {
		d = 0
	}
	slot := k.alloc(k.now+d, label)
	k.pool[slot].fn = fn
	return heapEvent{slot: slot, gen: k.pool[slot].gen}
}

func (k *heapKernel) ScheduleFn(d Time, label string, fn func(any), arg any) heapEvent {
	if d < 0 {
		d = 0
	}
	slot := k.alloc(k.now+d, label)
	r := &k.pool[slot]
	r.fnArg, r.arg = fn, arg
	return heapEvent{slot: slot, gen: r.gen}
}

func (k *heapKernel) Cancel(e heapEvent) bool {
	r := &k.pool[e.slot]
	if r.gen != e.gen || r.state != recPending {
		return false
	}
	r.state = recCancelled
	r.fn, r.fnArg, r.arg = nil, nil, nil
	k.live--
	return true
}

func (k *heapKernel) peek() (int32, bool) {
	for len(k.heap) > 0 {
		slot := k.heap[0]
		if k.pool[slot].state != recCancelled {
			return slot, true
		}
		k.heapPopRoot()
		k.release(slot)
	}
	return 0, false
}

// observe fires every sampler due at or before limit, earliest first and
// in registration order on ties, as Kernel.advanceSamplers does.
func (k *heapKernel) observe(limit Time) {
	for {
		var due *sampler
		for _, s := range k.samplers {
			if !s.stopped && s.next <= limit && (due == nil || s.next < due.next) {
				due = s
			}
		}
		if due == nil {
			return
		}
		if due.next > k.now {
			k.now = due.next
		}
		at := due.next
		due.next += due.period
		due.fn(at)
	}
}

func (k *heapKernel) fire(slot int32) {
	r := &k.pool[slot]
	k.observe(r.at - 1)
	k.heapPopRoot()
	k.now = r.at
	fn, fnArg, arg := r.fn, r.fnArg, r.arg
	k.live--
	k.release(slot)
	k.steps++
	if fnArg != nil {
		fnArg(arg)
	} else {
		fn()
	}
}

func (k *heapKernel) Step() bool {
	slot, ok := k.peek()
	if ok {
		k.fire(slot)
	}
	return ok
}

func (k *heapKernel) RunUntil(deadline Time) uint64 {
	start := k.steps
	for {
		slot, ok := k.peek()
		if !ok || k.pool[slot].at > deadline {
			break
		}
		k.fire(slot)
	}
	k.observe(deadline)
	if k.now < deadline {
		k.now = deadline
	}
	return k.steps - start
}

type heapTicker struct {
	k       *heapKernel
	period  Time
	label   string
	fn      func()
	next    heapEvent
	stopped bool
}

func heapTickerFire(a any) {
	t := a.(*heapTicker)
	if t.stopped {
		return
	}
	t.fn()
	if !t.stopped {
		t.next = t.k.ScheduleFn(t.period, t.label, heapTickerFire, t)
	}
}

func (k *heapKernel) Ticker(period Time, label string, fn func()) (stop func()) {
	t := &heapTicker{k: k, period: period, label: label, fn: fn}
	t.next = k.ScheduleFn(period, label, heapTickerFire, t)
	return func() {
		t.stopped = true
		k.Cancel(t.next)
	}
}

func (k *heapKernel) AddSampler(period Time, fn func(at Time)) (stop func()) {
	s := &sampler{period: period, next: k.now + period, fn: fn}
	k.samplers = append(k.samplers, s)
	return func() { s.stopped = true }
}

func (k *heapKernel) ExportState() State {
	st := State{Now: k.now, Steps: k.steps, Seq: k.seq, Seed: k.seed}
	for _, slot := range k.heap {
		if r := &k.pool[slot]; r.state == recPending {
			st.Pending = append(st.Pending, PendingEvent{At: r.at, Seq: r.seq, Label: r.label})
		}
	}
	sort.Slice(st.Pending, func(i, j int) bool {
		a, b := &st.Pending[i], &st.Pending[j]
		if a.At != b.At {
			return a.At < b.At
		}
		return a.Seq < b.Seq
	})
	return st
}

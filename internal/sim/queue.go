package sim

import "math/bits"

// The event queue is a 4-ary min-heap of slot indices plus up to
// numFIFOs delay FIFOs beside it. Events scheduled with one delay d
// reach the queue in (at, seq) order — the clock never moves backwards
// and seq only grows — so a plain FIFO per recurring delay is already
// sorted and costs O(1) per push and pop. The MAC's slot, DIFS and SIFS
// timers, the bulk of a dense world's events, re-arm back to back with
// a handful of delays; routed to FIFOs they never sift through the
// heap's depth of far-future beacon ticks. The minimum of the whole
// queue is the (at, seq)-minimum of the heap root and the FIFO heads,
// and seq is unique, so the pop order is exactly the one a heap alone
// produces.

// numFIFOs bounds the delay FIFOs; fifoLive is a uint8 bitmask of them.
const numFIFOs = 8

// delayFIFO holds the pending slots scheduled with one delay, oldest
// first in slots[head:]. Popping advances head; push compacts the
// slice once at least half of it is dead space and it is full, so a
// FIFO that never drains keeps a bounded footprint without an O(n)
// shift per pop.
type delayFIFO struct {
	delay Time
	slots []int32
	head  int
}

func (f *delayFIFO) push(slot int32) {
	if len(f.slots) == cap(f.slots) && f.head >= len(f.slots)/2 {
		n := copy(f.slots, f.slots[f.head:])
		f.slots, f.head = f.slots[:n], 0
	}
	f.slots = append(f.slots, slot)
}

// less orders slots by (at, seq); seq is unique, so the order is total
// and every correct queue pops the exact same sequence — which is what
// keeps runs bit-reproducible across queue implementations.
func (k *Kernel) less(a, b int32) bool {
	ra, rb := &k.pool[a], &k.pool[b]
	if ra.at != rb.at {
		return ra.at < rb.at
	}
	return ra.seq < rb.seq
}

// push queues slot, scheduled d after Now. It joins the live FIFO for
// d if there is one. Otherwise a free FIFO opens for d only when the
// previous push had the same delay too, so a burst of distinct delays
// (one-shot timeouts, randomized jitter) stays on the heap instead of
// churning FIFOs that would hold one event each.
func (k *Kernel) push(slot int32, d Time) {
	prev := k.lastDelay
	k.lastDelay = d
	for m := k.fifoLive; m != 0; m &= m - 1 {
		if f := &k.fifos[bits.TrailingZeros8(m)]; f.delay == d {
			f.push(slot)
			return
		}
	}
	if d == prev && k.fifoLive != 1<<numFIFOs-1 {
		i := bits.TrailingZeros8(^k.fifoLive)
		f := &k.fifos[i]
		f.delay = d
		f.push(slot)
		k.fifoLive |= 1 << i
		return
	}
	k.heapPush(slot)
}

// peek returns the slot of the earliest pending event, reclaiming
// cancelled heads along the way, or false when the queue is drained.
// It records where the slot sits in k.next for popNext.
func (k *Kernel) peek() (int32, bool) {
	for {
		slot, src := int32(-1), int8(-1)
		if len(k.heap) > 0 {
			slot = k.heap[0]
		}
		for m := k.fifoLive; m != 0; m &= m - 1 {
			i := bits.TrailingZeros8(m)
			f := &k.fifos[i]
			if h := f.slots[f.head]; slot < 0 || k.less(h, slot) {
				slot, src = h, int8(i)
			}
		}
		if slot < 0 {
			return 0, false
		}
		k.next = src
		if k.pool[slot].state != recCancelled {
			return slot, true
		}
		k.popNext()
		k.release(slot)
	}
}

// popNext removes the slot the last peek returned from its heap or
// FIFO. A FIFO that drains goes back to the free set, keeping its
// buffer for the next delay it opens for.
func (k *Kernel) popNext() {
	if k.next < 0 {
		k.heapPopRoot()
		return
	}
	f := &k.fifos[k.next]
	f.head++
	if f.head == len(f.slots) {
		f.slots, f.head = f.slots[:0], 0
		k.fifoLive &^= 1 << k.next
	}
}

// queued calls fn for every slot in the queue, cancelled ones included,
// in no particular order.
func (k *Kernel) queued(fn func(slot int32)) {
	for _, slot := range k.heap {
		fn(slot)
	}
	for m := k.fifoLive; m != 0; m &= m - 1 {
		f := &k.fifos[bits.TrailingZeros8(m)]
		for _, slot := range f.slots[f.head:] {
			fn(slot)
		}
	}
}

// heapPush appends slot and sifts it up. 4-ary layout: the children of
// node i are 4i+1..4i+4, its parent (i-1)/4. The wider node trades a
// slightly costlier sift-down for half the tree height, which wins on
// modern cores because the four-child minimum scan stays in one cache
// line of the index slice. Lazy cancellation means slots never leave
// the heap from the middle, so no position tracking is needed.
func (k *Kernel) heapPush(slot int32) {
	k.heap = append(k.heap, slot)
	k.siftUp(len(k.heap) - 1)
}

// heapPopRoot removes the minimum slot from the heap (the caller has
// already read k.heap[0]).
func (k *Kernel) heapPopRoot() {
	n := len(k.heap) - 1
	last := k.heap[n]
	k.heap = k.heap[:n]
	if n > 0 {
		k.heap[0] = last
		k.siftDown(0)
	}
}

func (k *Kernel) siftUp(i int) {
	h := k.heap
	moved := h[i]
	for i > 0 {
		parent := (i - 1) / 4
		if !k.less(moved, h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = moved
}

func (k *Kernel) siftDown(i int) {
	h := k.heap
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
			if k.less(h[c], h[best]) {
				best = c
			}
		}
		if !k.less(h[best], moved) {
			break
		}
		h[i] = h[best]
		i = best
	}
	h[i] = moved
}

package sim

// Samplers are periodic observers that ride the virtual clock without
// touching the event queue. The telemetry layer uses them to record
// sim-time series: a sampler consumes no event slots, mints no sequence
// numbers, draws no randomness, and emits no trace records, so a world
// runs bit-identically — same Digest, same Steps, same ExportState —
// whether or not samplers are attached. That property is what keeps
// telemetry out of the determinism contract, and it only holds as long
// as sampler callbacks observe: a callback must not schedule or cancel
// events, draw from the kernel RNG, or mutate model state.
//
// Ordering semantics: a sampler due at virtual time t fires after every
// event with timestamp <= t and before any event with a later
// timestamp, so a sample at t reflects exactly the prefix of the run up
// to and including t. Samplers due at the same instant fire in
// registration order. Kernel.Now() reads t inside a callback.

// sampler is one periodic observer.
type sampler struct {
	period  Time
	next    Time
	fn      func(at Time)
	stopped bool
}

// AddSampler registers fn to be observed-called every period of virtual
// time, first at Now()+period, and returns a stop function (idempotent,
// callable from inside fn). period must be positive.
//
// fn must be a pure observer: no scheduling, no cancellation, no RNG,
// no model mutation — see the package comment above. Violating this
// breaks the telemetry-neutrality guarantee the determinism suite pins.
func (k *Kernel) AddSampler(period Time, fn func(at Time)) (stop func()) {
	if period <= 0 {
		panic("sim: non-positive sampler period")
	}
	s := &sampler{period: period, next: k.now + period, fn: fn}
	k.samplers = append(k.samplers, s)
	k.recomputeSampleNext()
	return func() {
		if !s.stopped {
			s.stopped = true
			k.recomputeSampleNext()
		}
	}
}

// recomputeSampleNext caches the earliest pending sampler deadline;
// zero means no sampler is live. The cache keeps the per-event hot path
// to one comparison when no sampler is due (and zero extra work when
// none is registered).
func (k *Kernel) recomputeSampleNext() {
	k.sampleNext = 0
	for _, s := range k.samplers {
		if s.stopped {
			continue
		}
		if k.sampleNext == 0 || s.next < k.sampleNext {
			k.sampleNext = s.next
		}
	}
}

// advanceSamplers fires every sampler due at or before limit, earliest
// first (registration order on ties), advancing the virtual clock to
// each sampler's instant. Callers gate on k.sampleNext, so the loop
// here only runs when something is actually due.
func (k *Kernel) advanceSamplers(limit Time) {
	for {
		var due *sampler
		for _, s := range k.samplers {
			if s.stopped || s.next > limit {
				continue
			}
			if due == nil || s.next < due.next {
				due = s
			}
		}
		if due == nil {
			break
		}
		if due.next > k.now {
			k.now = due.next
		}
		at := due.next
		due.next += due.period
		due.fn(at)
	}
	k.recomputeSampleNext()
}

// Cancels returns the number of events descheduled by Cancel since the
// kernel was created. Like Steps it is observability-only: not part of
// ExportState, never digested.
func (k *Kernel) Cancels() uint64 { return k.cancels }

// PoolStats returns the pooled event slots and how many of them are on
// the free list — the kernel's steady-state memory footprint and
// headroom.
func (k *Kernel) PoolStats() (slots, free int) { return len(k.pool), len(k.free) }

// Seq returns the number of events scheduled since the kernel was
// created (the kernel-wide sequence counter).
func (k *Kernel) Seq() uint64 { return k.seq }

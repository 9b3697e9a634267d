package sim

import (
	"math/rand"
	"sort"
)

// countingSource wraps the kernel's math/rand source and counts state
// advances. Every Int63 and Uint64 call moves the underlying generator
// exactly one step, so the counter is a complete, cheap fingerprint of
// the RNG stream position: two kernels seeded alike that have drawn the
// same count are in bit-identical generator states. The checkpoint
// layer compares (seed, draws) pairs to prove a restored world consumed
// randomness exactly as the original did.
//
// The wrapper implements rand.Source64, so rand.Rand takes the same
// single-step Uint64 path it took with the bare source — the counting
// changes no generated value. rand.Rand.Read would buffer partial
// words outside the source and break the fingerprint; nothing in the
// model uses it.
type countingSource struct {
	src   rand.Source64
	draws uint64
}

func (c *countingSource) Int63() int64 {
	c.draws++
	return c.src.Int63()
}

func (c *countingSource) Uint64() uint64 {
	c.draws++
	return c.src.Uint64()
}

func (c *countingSource) Seed(seed int64) {
	c.draws = 0
	c.src.Seed(seed)
}

// Reseed rewinds the kernel's random generator to a fresh stream seeded
// with seed, leaving the clock and event queue untouched. Seed reports
// the new seed and the draw count restarts at zero. This is the fork
// primitive: two worlds with identical state that Reseed differently
// diverge from the fork point on, while equal reseeds keep them
// bit-identical.
func (k *Kernel) Reseed(seed int64) {
	k.src.Seed(seed)
	k.seed = seed
}

// PendingEvent is one scheduled event in canonical export form: its
// firing time, its kernel-wide sequence number (the deterministic FIFO
// tiebreak), and its diagnostic label. Callback identity is
// deliberately absent — closures are not serializable — so the pending
// list is a verifiable fingerprint of the queue, not a recipe for
// rebuilding it.
type PendingEvent struct {
	At    Time   `json:"at"`
	Seq   uint64 `json:"seq"`
	Label string `json:"label"`
}

// State is the kernel's exportable state: clock, counters, RNG stream
// position, and the pending event queue in canonical (at, seq) order.
// Two kernels that evolved through the same event sequence export
// byte-identical States regardless of slot-pool layout, free-list
// order, or which events sit on the heap and which in delay FIFOs —
// those are implementation artifacts and are deliberately excluded.
type State struct {
	Now     Time           `json:"now"`
	Steps   uint64         `json:"steps"`
	Seq     uint64         `json:"seq"`
	Seed    int64          `json:"seed"`
	Draws   uint64         `json:"rng_draws"`
	Pending []PendingEvent `json:"pending,omitempty"`
}

// ExportState captures the kernel's current state in canonical form.
// Cancelled events still parked in the queue (lazy removal) are skipped:
// they are already dead and a replayed kernel may have reclaimed them
// at different points.
func (k *Kernel) ExportState() State {
	st := State{
		Now:   k.now,
		Steps: k.steps,
		Seq:   k.seq,
		Seed:  k.seed,
		Draws: k.src.draws,
	}
	k.queued(func(slot int32) {
		if r := &k.pool[slot]; r.state == recPending {
			st.Pending = append(st.Pending, PendingEvent{At: r.at, Seq: r.seq, Label: r.label})
		}
	})
	sort.Slice(st.Pending, func(i, j int) bool {
		a, b := &st.Pending[i], &st.Pending[j]
		if a.At != b.At {
			return a.At < b.At
		}
		return a.Seq < b.Seq
	})
	return st
}

package sim

// Test-only helpers: nothing outside the tests calls these, so they
// live here rather than in the package's API.

// RandDraws returns the number of random values drawn from the kernel's
// generator since creation or the last Reseed. Together with Seed it
// pins the exact generator state without exporting the generator's
// internal vector.
func (k *Kernel) RandDraws() uint64 { return k.src.draws }

// Pending reports whether the event is still scheduled to fire: it was
// scheduled, and has not yet fired or been cancelled.
func (e Event) Pending() bool {
	if e.k == nil {
		return false
	}
	r := &e.k.pool[e.slot]
	return r.gen == e.gen && r.state == recPending
}

package lease

// Test-only helpers: nothing outside the tests calls these, so they
// live here rather than in the package's API.

// Holder returns the name the lease was granted to.
func (l *Lease) Holder() string { return l.holder }

// Renewals returns how many times the lease has been renewed.
func (l *Lease) Renewals() int { return l.renewals }

// Active reports whether the lease is still in force.
func (l *Lease) Active() bool { return !l.dead }

// Active returns the number of live leases.
func (t *Table) Active() int { return len(t.leases) }

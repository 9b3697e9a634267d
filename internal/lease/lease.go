// Package lease implements Jini-style resource leasing: a grant of access
// for a bounded time that the holder must renew, and that self-destructs
// if it is not. Leasing is the mechanism by which the Aroma lookup service
// self-heals after clients crash — a concrete instance of the paper's
// requirement that pervasive networking be "self-configuring" with no
// system administrator.
package lease

import (
	"errors"
	"fmt"

	"aroma/internal/sim"
)

// ID identifies a lease within one Table.
type ID uint64

// Lease is one granted lease.
type Lease struct {
	id       ID
	holder   string
	expires  sim.Time
	duration sim.Time
	onExpire func()
	event    sim.Event
	table    *Table
	dead     bool
	renewals int
}

// ID returns the lease identifier.
func (l *Lease) ID() ID { return l.id }

// Expires returns the current expiry instant.
func (l *Lease) Expires() sim.Time { return l.expires }

// String formats the lease for diagnostics.
func (l *Lease) String() string {
	state := "active"
	if l.dead {
		state = "dead"
	}
	return fmt.Sprintf("lease#%d holder=%s %s expires=%v", l.id, l.holder, state, l.expires)
}

// Table issues and tracks leases against one simulation clock.
type Table struct {
	kernel *sim.Kernel
	leases map[ID]*Lease
	next   ID

	// Stats
	Granted  uint64
	Expired  uint64
	Renewed  uint64
	Released uint64
}

// NewTable creates an empty lease table on the given kernel.
func NewTable(k *sim.Kernel) *Table {
	return &Table{kernel: k, leases: make(map[ID]*Lease)}
}

// Errors returned by Table operations.
var (
	ErrExpired     = errors.New("lease: already expired or released")
	ErrBadDuration = errors.New("lease: duration must be positive")
)

// MaxDuration caps every granted and renewed duration.
const MaxDuration = 5 * sim.Minute

// Grant issues a lease for the given duration, at most MaxDuration.
// onExpire (optional) runs when the lease lapses without renewal or is
// broken by Break — but not on voluntary Release.
func (t *Table) Grant(holder string, d sim.Time, onExpire func()) (*Lease, error) {
	if d <= 0 {
		return nil, ErrBadDuration
	}
	d = min(d, MaxDuration)
	t.next++
	l := &Lease{
		id:       t.next,
		holder:   holder,
		duration: d,
		expires:  t.kernel.Now() + d,
		onExpire: onExpire,
		table:    t,
	}
	t.leases[l.id] = l
	t.Granted++
	l.event = t.kernel.ScheduleFn(d, "lease.expire", leaseExpired, l)
	return l, nil
}

// leaseExpired is the ScheduleFn trampoline for a lease's expiry
// timer; the table is recovered from the lease.
func leaseExpired(a any) { l := a.(*Lease); l.table.expire(l) }

func (t *Table) expire(l *Lease) {
	if l.dead {
		return
	}
	l.dead = true
	delete(t.leases, l.id)
	t.Expired++
	if l.onExpire != nil {
		l.onExpire()
	}
}

// Renew extends a lease by d, at most MaxDuration, from now. Renewing a
// dead lease fails with ErrExpired; the holder must re-acquire (exactly
// Jini's contract).
func (t *Table) Renew(l *Lease, d sim.Time) error {
	if l == nil || l.dead {
		return ErrExpired
	}
	if d <= 0 {
		return ErrBadDuration
	}
	d = min(d, MaxDuration)
	t.kernel.Cancel(l.event)
	l.expires = t.kernel.Now() + d
	l.duration = d
	l.renewals++
	t.Renewed++
	l.event = t.kernel.ScheduleFn(d, "lease.expire", leaseExpired, l)
	return nil
}

// Release voluntarily cancels a lease without firing onExpire.
func (t *Table) Release(l *Lease) error {
	if l == nil || l.dead {
		return ErrExpired
	}
	l.dead = true
	t.kernel.Cancel(l.event)
	delete(t.leases, l.id)
	t.Released++
	return nil
}

// Break forcibly terminates a lease and fires onExpire, modelling an
// administrative or policy revocation.
//
//aroma:kept lease model: grantor-side revocation, the counterpart of expiry and release
func (t *Table) Break(l *Lease) error {
	if l == nil || l.dead {
		return ErrExpired
	}
	t.kernel.Cancel(l.event)
	t.expire(l)
	return nil
}

// AutoRenewer renews l every interval until stopped or the lease dies.
// It returns a stop function. Interval should be comfortably below the
// lease duration; renewal happens with the same duration the lease
// currently has.
//
//aroma:kept lease model: the holder-side renewal loop over a local table
func (t *Table) AutoRenewer(l *Lease, interval sim.Time) (stop func()) {
	if interval <= 0 {
		panic("lease: non-positive renew interval")
	}
	return t.kernel.Ticker(interval, "lease.autoRenew", func() {
		// Ignore failure: if the lease died, renewals simply stop having
		// any effect; the holder notices via Active().
		_ = t.Renew(l, l.duration)
	})
}

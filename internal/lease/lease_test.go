package lease

import (
	"math/rand"
	"testing"
	"testing/quick"

	"aroma/internal/sim"
)

func TestGrantAndExpire(t *testing.T) {
	k := sim.New(1)
	tb := NewTable(k)
	expired := false
	l, err := tb.Grant("svc", 10*sim.Second, func() { expired = true })
	if err != nil {
		t.Fatal(err)
	}
	if !l.Active() || tb.Active() != 1 {
		t.Fatal("lease not active after grant")
	}
	if l.Holder() != "svc" || l.ID() == 0 {
		t.Fatal("metadata wrong")
	}
	k.RunUntil(9 * sim.Second)
	if !l.Active() || expired {
		t.Fatal("lease expired early")
	}
	k.RunUntil(11 * sim.Second)
	if l.Active() || !expired {
		t.Fatal("lease did not expire")
	}
	if tb.Active() != 0 || tb.Expired != 1 {
		t.Fatalf("table state: active=%d expired=%d", tb.Active(), tb.Expired)
	}
}

func TestRenewExtends(t *testing.T) {
	k := sim.New(1)
	tb := NewTable(k)
	expired := false
	l, _ := tb.Grant("svc", 10*sim.Second, func() { expired = true })
	k.RunUntil(8 * sim.Second)
	if err := tb.Renew(l, 10*sim.Second); err != nil {
		t.Fatal(err)
	}
	k.RunUntil(15 * sim.Second)
	if !l.Active() || expired {
		t.Fatal("renewed lease expired at original deadline")
	}
	if l.Expires() != 18*sim.Second {
		t.Fatalf("expires = %v, want 18s", l.Expires())
	}
	if l.Renewals() != 1 || tb.Renewed != 1 {
		t.Fatal("renewal counters wrong")
	}
	k.RunUntil(19 * sim.Second)
	if l.Active() || !expired {
		t.Fatal("renewed lease did not expire at new deadline")
	}
}

func TestRenewDeadLeaseFails(t *testing.T) {
	k := sim.New(1)
	tb := NewTable(k)
	l, _ := tb.Grant("svc", sim.Second, nil)
	k.RunUntil(2 * sim.Second)
	if err := tb.Renew(l, sim.Second); err != ErrExpired {
		t.Fatalf("err = %v, want ErrExpired", err)
	}
}

func TestReleaseDoesNotFireOnExpire(t *testing.T) {
	k := sim.New(1)
	tb := NewTable(k)
	expired := false
	l, _ := tb.Grant("svc", 10*sim.Second, func() { expired = true })
	if err := tb.Release(l); err != nil {
		t.Fatal(err)
	}
	k.RunUntil(20 * sim.Second)
	if expired {
		t.Fatal("Release fired onExpire")
	}
	if l.Active() || tb.Active() != 0 || tb.Released != 1 {
		t.Fatal("release bookkeeping wrong")
	}
	if err := tb.Release(l); err != ErrExpired {
		t.Fatal("double release should fail")
	}
}

func TestBreakFiresOnExpire(t *testing.T) {
	k := sim.New(1)
	tb := NewTable(k)
	expired := false
	l, _ := tb.Grant("svc", 10*sim.Second, func() { expired = true })
	if err := tb.Break(l); err != nil {
		t.Fatal(err)
	}
	if !expired || l.Active() {
		t.Fatal("Break did not expire the lease")
	}
	if err := tb.Break(l); err != ErrExpired {
		t.Fatal("double break should fail")
	}
}

func TestBadDurations(t *testing.T) {
	k := sim.New(1)
	tb := NewTable(k)
	if _, err := tb.Grant("x", 0, nil); err != ErrBadDuration {
		t.Fatal("zero duration accepted")
	}
	l, _ := tb.Grant("x", sim.Second, nil)
	if err := tb.Renew(l, -sim.Second); err != ErrBadDuration {
		t.Fatal("negative renewal accepted")
	}
}

func TestMaxDurationCap(t *testing.T) {
	k := sim.New(1)
	tb := NewTable(k)
	l, _ := tb.Grant("x", sim.Hour, nil)
	if l.Expires() != MaxDuration {
		t.Fatalf("expires = %v, want the cap %v", l.Expires(), MaxDuration)
	}
	k.RunUntil(3 * sim.Second)
	tb.Renew(l, sim.Hour)
	if want := 3*sim.Second + MaxDuration; l.Expires() != want {
		t.Fatalf("renewed expires = %v, want now + cap = %v", l.Expires(), want)
	}
}

func TestAutoRenewerKeepsAlive(t *testing.T) {
	k := sim.New(1)
	tb := NewTable(k)
	expired := false
	l, _ := tb.Grant("svc", 10*sim.Second, func() { expired = true })
	stop := tb.AutoRenewer(l, 4*sim.Second)
	k.RunUntil(sim.Minute)
	if !l.Active() || expired {
		t.Fatal("auto-renewed lease died")
	}
	stop()
	k.RunUntil(sim.Minute + 20*sim.Second)
	if l.Active() || !expired {
		t.Fatal("lease survived after auto-renewer stopped")
	}
}

func TestAutoRenewerPanicsOnBadInterval(t *testing.T) {
	k := sim.New(1)
	tb := NewTable(k)
	l, _ := tb.Grant("svc", sim.Second, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	tb.AutoRenewer(l, 0)
}

func TestNilLeaseOperations(t *testing.T) {
	k := sim.New(1)
	tb := NewTable(k)
	if err := tb.Renew(nil, sim.Second); err != ErrExpired {
		t.Fatal("nil renew")
	}
	if err := tb.Release(nil); err != ErrExpired {
		t.Fatal("nil release")
	}
	if err := tb.Break(nil); err != ErrExpired {
		t.Fatal("nil break")
	}
}

func TestStringStates(t *testing.T) {
	k := sim.New(1)
	tb := NewTable(k)
	l, _ := tb.Grant("svc", sim.Second, nil)
	if s := l.String(); s == "" {
		t.Fatal("empty string")
	}
	tb.Release(l)
	if s := l.String(); s == "" {
		t.Fatal("empty string for dead lease")
	}
}

// Property: for any sequence of grant durations, the number of granted
// leases equals expired + released + still-active after the clock runs
// far past every expiry (conservation of leases).
func TestPropertyLeaseConservation(t *testing.T) {
	f := func(durations []uint8, releaseMask []bool) bool {
		k := sim.New(11)
		tb := NewTable(k)
		var leases []*Lease
		for _, d := range durations {
			l, err := tb.Grant("h", sim.Time(int(d)+1)*sim.Millisecond, nil)
			if err != nil {
				return false
			}
			leases = append(leases, l)
		}
		for i, l := range leases {
			if i < len(releaseMask) && releaseMask[i] {
				tb.Release(l)
			}
		}
		k.RunUntil(sim.Hour)
		return tb.Granted == tb.Expired+tb.Released+uint64(tb.Active())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(12))}); err != nil {
		t.Fatal(err)
	}
}

// Property: expiry time is monotone non-decreasing across renewals.
func TestPropertyRenewalMonotone(t *testing.T) {
	f := func(steps []uint8) bool {
		k := sim.New(13)
		tb := NewTable(k)
		l, _ := tb.Grant("h", sim.Minute, nil)
		prev := l.Expires()
		for _, s := range steps {
			k.RunUntil(k.Now() + sim.Time(s%50)*sim.Millisecond)
			if !l.Active() {
				return true
			}
			if err := tb.Renew(l, sim.Minute); err != nil {
				return !l.Active()
			}
			if l.Expires() < prev {
				return false
			}
			prev = l.Expires()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(14))}); err != nil {
		t.Fatal(err)
	}
}

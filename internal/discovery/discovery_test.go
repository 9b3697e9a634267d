package discovery

import (
	"errors"
	"testing"

	"aroma/internal/env"
	"aroma/internal/geo"
	"aroma/internal/mac"
	"aroma/internal/netsim"
	"aroma/internal/radio"
	"aroma/internal/sim"
)

// rig builds a kernel, a lookup service node, and n agent nodes nearby.
func rig(seed int64, n int) (*sim.Kernel, *Lookup, []*Agent) {
	k := sim.New(seed)
	e := env.New(geo.NewFloorPlan(geo.RectAt(0, 0, 200, 100)))
	med := radio.NewMedium(k, e)
	m := mac.New(med)
	nw := netsim.New(m)
	lkNode := nw.NewNode("lookup", m.AddStation(med.NewRadio("lk", geo.Pt(50, 50), 6, 15)))
	lk := NewLookup(lkNode)
	agents := make([]*Agent, n)
	for i := range agents {
		node := nw.NewNode("agent", m.AddStation(med.NewRadio("ag", geo.Pt(float64(45+3*i), 48), 6, 15)))
		agents[i] = NewAgent(node)
	}
	return k, lk, agents
}

func TestTemplateMatching(t *testing.T) {
	it := Item{Name: "proj-1", Type: "display", Attrs: map[string]string{"room": "215", "res": "xga"}}
	cases := []struct {
		tmpl Template
		want bool
	}{
		{Template{}, true},
		{Template{Type: "display"}, true},
		{Template{Type: "printer"}, false},
		{Template{Name: "proj-1"}, true},
		{Template{Name: "proj-2"}, false},
		{Template{Attrs: map[string]string{"room": "215"}}, true},
		{Template{Attrs: map[string]string{"room": "216"}}, false},
		{Template{Type: "display", Attrs: map[string]string{"room": "215", "res": "xga"}}, true},
		{Template{Attrs: map[string]string{"missing": "x"}}, false},
	}
	for i, c := range cases {
		if got := c.tmpl.Matches(it); got != c.want {
			t.Errorf("case %d: Matches = %v, want %v", i, got, c.want)
		}
	}
}

func TestAnnouncementDiscovery(t *testing.T) {
	k, lk, agents := rig(1, 2)
	var foundAt sim.Time = -1
	agents[0].OnLookupFound = func(addr netsim.Addr) {
		if addr == lk.Addr() {
			foundAt = k.Now()
		}
	}
	lk.Start()
	k.RunUntil(sim.Second)
	if foundAt < 0 {
		t.Fatal("lookup not discovered")
	}
	if foundAt > 100*sim.Millisecond {
		t.Fatalf("cold-start discovery took %v", foundAt)
	}
	addr, ok := agents[1].lookup, agents[1].found
	if !ok || addr != lk.Addr() {
		t.Fatal("second agent did not discover")
	}
	if agents[0].AnnouncementsHeard == 0 {
		t.Fatal("no announcements counted")
	}
}

func TestRegisterAndLookup(t *testing.T) {
	k, lk, agents := rig(2, 2)
	lk.Start()
	k.RunUntil(sim.Second)

	var reg *Registration
	agents[0].Register(Item{Name: "proj", Type: "display", Port: 42}, 0, func(r *Registration, err error) {
		if err != nil {
			t.Errorf("register: %v", err)
			return
		}
		reg = r
	})
	k.RunUntil(2 * sim.Second)
	if reg == nil {
		t.Fatal("registration did not complete")
	}
	if lk.Count() != 1 {
		t.Fatalf("lookup count = %d", lk.Count())
	}

	var items []Item
	agents[1].Lookup(Template{Type: "display"}, func(its []Item, err error) {
		if err != nil {
			t.Errorf("lookup: %v", err)
			return
		}
		items = its
	})
	k.RunUntil(3 * sim.Second)
	if len(items) != 1 || items[0].Name != "proj" {
		t.Fatalf("items = %v", items)
	}
	if items[0].Provider != agents[0].node.Addr() {
		t.Fatal("provider not defaulted to registrant")
	}
	if items[0].Port != 42 {
		t.Fatal("port lost")
	}

	// Non-matching template returns nothing.
	var misses []Item
	agents[1].Lookup(Template{Type: "printer"}, func(its []Item, err error) { misses = its })
	k.RunUntil(4 * sim.Second)
	if len(misses) != 0 {
		t.Fatalf("unexpected matches: %v", misses)
	}
}

func TestLeaseExpiryCleansRegistration(t *testing.T) {
	k, lk, agents := rig(3, 1)
	lk.Start()
	k.RunUntil(sim.Second)
	agents[0].Register(Item{Name: "p", Type: "display"}, 10*sim.Second, nil)
	k.RunUntil(2 * sim.Second)
	if lk.Count() != 1 {
		t.Fatal("not registered")
	}
	// No renewal: registration must disappear within the lease duration.
	k.RunUntil(13 * sim.Second)
	if lk.Count() != 0 {
		t.Fatal("expired registration not cleaned")
	}
	if lk.Expirations != 1 {
		t.Fatalf("expirations = %d", lk.Expirations)
	}
}

func TestAutoRenewKeepsRegistrationAlive(t *testing.T) {
	k, lk, agents := rig(4, 1)
	lk.Start()
	k.RunUntil(sim.Second)
	var reg *Registration
	agents[0].Register(Item{Name: "p", Type: "display"}, 10*sim.Second, func(r *Registration, err error) { reg = r })
	k.RunUntil(2 * sim.Second)
	if reg == nil {
		t.Fatal("no registration")
	}
	reg.AutoRenew(4 * sim.Second)
	k.RunUntil(2 * sim.Minute)
	if lk.Count() != 1 {
		t.Fatal("auto-renewed registration lapsed")
	}
	// Simulate provider crash: renewals stop, lease lapses.
	reg.StopAutoRenew()
	k.RunUntil(2*sim.Minute + 15*sim.Second)
	if lk.Count() != 0 {
		t.Fatal("registration survived provider crash")
	}
}

func TestCancelRemovesImmediately(t *testing.T) {
	k, lk, agents := rig(5, 1)
	lk.Start()
	k.RunUntil(sim.Second)
	var reg *Registration
	agents[0].Register(Item{Name: "p", Type: "display"}, 0, func(r *Registration, err error) { reg = r })
	k.RunUntil(2 * sim.Second)
	var cancelErr error = errors.New("not called")
	reg.Cancel(func(err error) { cancelErr = err })
	k.RunUntil(3 * sim.Second)
	if cancelErr != nil {
		t.Fatalf("cancel err = %v", cancelErr)
	}
	if lk.Count() != 0 || lk.Cancellations != 1 {
		t.Fatal("cancel did not remove registration")
	}
}

func TestSubscribeReceivesEvents(t *testing.T) {
	k, lk, agents := rig(6, 2)
	lk.Start()
	k.RunUntil(sim.Second)
	var events []Event
	agents[1].OnEvent = func(ev Event) { events = append(events, ev) }
	subscribed := false
	agents[1].Subscribe(Template{Type: "display"}, sim.Minute, func(id uint64, err error) {
		subscribed = err == nil && id != 0
	})
	k.RunUntil(2 * sim.Second)
	if !subscribed || len(lk.subs) != 1 {
		t.Fatal("subscription failed")
	}

	var reg *Registration
	agents[0].Register(Item{Name: "p", Type: "display"}, 0, func(r *Registration, err error) { reg = r })
	k.RunUntil(3 * sim.Second)
	if len(events) != 1 || events[0].Kind != EventRegistered || events[0].Item.Name != "p" {
		t.Fatalf("events = %v", events)
	}

	reg.Cancel(nil)
	k.RunUntil(4 * sim.Second)
	if len(events) != 2 || events[1].Kind != EventDeregistered {
		t.Fatalf("events after cancel = %v", events)
	}

	// Non-matching registrations produce no events.
	agents[0].Register(Item{Name: "x", Type: "printer"}, 0, nil)
	k.RunUntil(5 * sim.Second)
	if len(events) != 2 {
		t.Fatalf("got event for non-matching type: %v", events)
	}
}

func TestUnsubscribeStopsEvents(t *testing.T) {
	k, lk, agents := rig(7, 2)
	lk.Start()
	k.RunUntil(sim.Second)
	var events int
	agents[1].OnEvent = func(Event) { events++ }
	var subID uint64
	agents[1].Subscribe(Template{}, sim.Minute, func(id uint64, err error) { subID = id })
	k.RunUntil(2 * sim.Second)
	agents[1].Unsubscribe(subID, nil)
	k.RunUntil(3 * sim.Second)
	agents[0].Register(Item{Name: "p", Type: "display"}, 0, nil)
	k.RunUntil(4 * sim.Second)
	if events != 0 {
		t.Fatalf("received %d events after unsubscribe", events)
	}
	if len(lk.subs) != 0 {
		t.Fatal("subscription not removed")
	}
}

func TestCallBeforeDiscoveryFails(t *testing.T) {
	_, _, agents := rig(8, 1)
	// Lookup never started: agent has no address.
	var gotErr error
	agents[0].Lookup(Template{}, func(_ []Item, err error) { gotErr = err })
	if !errors.Is(gotErr, ErrNoLookup) {
		t.Fatalf("err = %v, want ErrNoLookup", gotErr)
	}
}

func TestRenewUnknownRegistrationDenied(t *testing.T) {
	k, lk, agents := rig(9, 1)
	lk.Start()
	k.RunUntil(sim.Second)
	bogus := &Registration{agent: agents[0], ID: 999, LeaseDur: sim.Second}
	var gotErr error
	bogus.Renew(func(err error) { gotErr = err })
	k.RunUntil(2 * sim.Second)
	if !errors.Is(gotErr, ErrDenied) {
		t.Fatalf("err = %v, want ErrDenied", gotErr)
	}
}

func TestProxyBytesCarriedThrough(t *testing.T) {
	k, lk, agents := rig(10, 2)
	lk.Start()
	k.RunUntil(sim.Second)
	proxy := []byte{0xDE, 0xAD, 0xBE, 0xEF}
	agents[0].Register(Item{Name: "p", Type: "display", Proxy: proxy}, 0, nil)
	k.RunUntil(2 * sim.Second)
	var got []Item
	agents[1].Lookup(Template{Name: "p"}, func(its []Item, err error) { got = its })
	k.RunUntil(3 * sim.Second)
	if len(got) != 1 || string(got[0].Proxy) != string(proxy) {
		t.Fatalf("proxy lost: %v", got)
	}
}

func TestManyServicesScale(t *testing.T) {
	k, lk, agents := rig(11, 1)
	lk.Start()
	k.RunUntil(sim.Second)
	for i := 0; i < 30; i++ {
		name := string(rune('a' + i%26))
		agents[0].Register(Item{Name: name, Type: "sensor"}, sim.Minute, nil)
	}
	k.RunUntil(30 * sim.Second)
	if lk.Count() != 30 {
		t.Fatalf("count = %d, want 30", lk.Count())
	}
	var n int
	agents[0].Lookup(Template{Type: "sensor"}, func(its []Item, err error) { n = len(its) })
	k.RunUntil(31 * sim.Second)
	if n != 30 {
		t.Fatalf("lookup returned %d", n)
	}
}

func TestStopAnnouncing(t *testing.T) {
	k, lk, agents := rig(12, 1)
	lk.Start()
	lk.Start() // idempotent
	k.RunUntil(sim.Second)
	heard := agents[0].AnnouncementsHeard
	lk.Stop()
	lk.Stop() // idempotent
	k.RunUntil(sim.Minute)
	if agents[0].AnnouncementsHeard != heard {
		t.Fatal("announcements continued after Stop")
	}
}

func TestLookupResultsSortedByServiceID(t *testing.T) {
	k, lk, agents := rig(1, 1)
	lk.Start()
	k.RunFor(6 * sim.Second) // hear the announcement
	a := agents[0]
	// Register several services of the same type; registration order is
	// driven by distinct call times so IDs are assigned 1..n.
	const n = 6
	for i := 0; i < n; i++ {
		a.Register(Item{Name: "svc", Type: "printer"}, 0, func(_ *Registration, err error) {
			if err != nil {
				t.Error(err)
			}
		})
		k.RunFor(200 * sim.Millisecond)
	}
	for trial := 0; trial < 5; trial++ {
		var got []Item
		a.Lookup(Template{Type: "printer"}, func(items []Item, err error) {
			if err != nil {
				t.Error(err)
			}
			got = items
		})
		k.RunFor(sim.Second)
		if len(got) != n {
			t.Fatalf("trial %d: items = %d, want %d", trial, len(got), n)
		}
		for i := 1; i < len(got); i++ {
			if got[i-1].ID >= got[i].ID {
				t.Fatalf("trial %d: items not sorted by ServiceID: %v then %v", trial, got[i-1].ID, got[i].ID)
			}
		}
	}
}

func TestNotifyDeliversInSubscriptionIDOrder(t *testing.T) {
	k, lk, agents := rig(1, 4)
	lk.Start()
	k.RunFor(6 * sim.Second)
	// Subscribers 1..3 (agents 1..3) watch for printers; agent 0 registers.
	subOf := map[*Agent]uint64{}
	for _, a := range agents[1:] {
		a := a
		a.Subscribe(Template{Type: "printer"}, 0, func(id uint64, err error) {
			if err != nil {
				t.Error(err)
			}
			subOf[a] = id
		})
		k.RunFor(300 * sim.Millisecond)
	}
	if len(lk.subs) != 3 {
		t.Fatalf("subscribers = %d", len(lk.subs))
	}
	var order []uint64
	for _, a := range agents[1:] {
		a := a
		a.OnEvent = func(ev Event) {
			if ev.Kind == EventRegistered {
				order = append(order, subOf[a])
			}
		}
	}
	agents[0].Register(Item{Name: "p", Type: "printer"}, 0, nil)
	k.RunFor(2 * sim.Second)
	if len(order) != 3 {
		t.Fatalf("events delivered = %d, want 3", len(order))
	}
	for i := 1; i < len(order); i++ {
		if order[i-1] >= order[i] {
			t.Fatalf("events not in ascending subscription-ID order: %v", order)
		}
	}
}

package discovery

import (
	"testing"

	"aroma/internal/env"
	"aroma/internal/geo"
	"aroma/internal/mac"
	"aroma/internal/netsim"
	"aroma/internal/radio"
	"aroma/internal/sim"
)

// peerRig builds n nodes close together for peer-discovery tests.
func peerRig(seed int64, n int) (*sim.Kernel, []*netsim.Node) {
	k := sim.New(seed)
	e := env.New(geo.NewFloorPlan(geo.RectAt(0, 0, 100, 50)))
	med := radio.NewMedium(k, e)
	m := mac.New(med)
	nw := netsim.New(m)
	nodes := make([]*netsim.Node, n)
	for i := range nodes {
		nodes[i] = nw.NewNode("peer", m.AddStation(med.NewRadio("p", geo.Pt(float64(10+3*i), 25), 6, 15)))
	}
	return k, nodes
}

func TestPeerAnnounceAndCache(t *testing.T) {
	k, nodes := peerRig(1, 2)
	cache := NewPeerCache(nodes[1])
	var appeared []Item
	cache.OnAppear = func(it Item) { appeared = append(appeared, it) }
	AnnouncePeer(nodes[0], Item{Name: "printer-1", Type: "printer"}, sim.Second, 0)
	k.RunUntil(1500 * sim.Millisecond) // first announce is jittered within one period
	if cache.Count() != 1 {
		t.Fatalf("cache count = %d", cache.Count())
	}
	if len(appeared) != 1 || appeared[0].Name != "printer-1" {
		t.Fatalf("appeared = %v", appeared)
	}
	items := cache.Lookup(Template{Type: "printer"})
	if len(items) != 1 || items[0].Provider != nodes[0].Addr() {
		t.Fatalf("lookup = %v", items)
	}
	if got := cache.Lookup(Template{Type: "scanner"}); len(got) != 0 {
		t.Fatalf("non-matching lookup = %v", got)
	}
	// Re-announcements do not re-fire OnAppear.
	k.RunUntil(5 * sim.Second)
	if len(appeared) != 1 {
		t.Fatalf("OnAppear fired %d times", len(appeared))
	}
}

func TestPeerTTLExpiry(t *testing.T) {
	k, nodes := peerRig(2, 2)
	cache := NewPeerCache(nodes[1])
	var expired []Item
	cache.OnExpire = func(it Item) { expired = append(expired, it) }
	ps := AnnouncePeer(nodes[0], Item{Name: "cam", Type: "camera"}, 2*sim.Second, 6*sim.Second)
	k.RunUntil(5 * sim.Second)
	if cache.Count() != 1 {
		t.Fatal("not cached")
	}
	// Crash: announcements stop; entry must lapse within one TTL.
	ps.Stop()
	k.RunUntil(13 * sim.Second)
	if cache.Count() != 0 {
		t.Fatal("entry survived TTL after crash")
	}
	if len(expired) != 1 || cache.Expirations != 1 {
		t.Fatalf("expiry accounting: %v / %d", expired, cache.Expirations)
	}
}

func TestPeerByeRemovesImmediately(t *testing.T) {
	k, nodes := peerRig(3, 2)
	cache := NewPeerCache(nodes[1])
	ps := AnnouncePeer(nodes[0], Item{Name: "tv", Type: "display"}, sim.Second, sim.Minute)
	k.RunUntil(2 * sim.Second)
	if cache.Count() != 1 {
		t.Fatal("not cached")
	}
	ps.Bye()
	k.RunUntil(3 * sim.Second)
	if cache.Count() != 0 {
		t.Fatal("byebye did not clear the entry")
	}
	// TTL would have been a minute: bye was immediate.
	ps.Bye() // idempotent after stop
}

func TestPeerMultipleServicesAndProviders(t *testing.T) {
	k, nodes := peerRig(4, 4)
	cache := NewPeerCache(nodes[3])
	AnnouncePeer(nodes[0], Item{Name: "light-1", Type: "light"}, sim.Second, 0)
	AnnouncePeer(nodes[1], Item{Name: "light-2", Type: "light"}, sim.Second, 0)
	AnnouncePeer(nodes[2], Item{Name: "lock-1", Type: "lock"}, sim.Second, 0)
	k.RunUntil(3 * sim.Second)
	if cache.Count() != 3 {
		t.Fatalf("count = %d", cache.Count())
	}
	if got := cache.Lookup(Template{Type: "light"}); len(got) != 2 {
		t.Fatalf("lights = %v", got)
	}
}

func TestPeerProviderDefaulted(t *testing.T) {
	k, nodes := peerRig(5, 2)
	cache := NewPeerCache(nodes[1])
	ps := AnnouncePeer(nodes[0], Item{Name: "x", Type: "t"}, sim.Second, 0)
	if ps.item.Provider != nodes[0].Addr() {
		t.Fatal("provider not defaulted")
	}
	k.RunUntil(sim.Second)
	if got := cache.Lookup(Template{}); len(got) != 1 || got[0].Provider != nodes[0].Addr() {
		t.Fatalf("cached provider wrong: %v", got)
	}
}

func TestPeerAnnouncementCounters(t *testing.T) {
	k, nodes := peerRig(7, 2)
	cache := NewPeerCache(nodes[1])
	ps := AnnouncePeer(nodes[0], Item{Name: "x", Type: "t"}, sim.Second, 0)
	k.RunUntil(5500 * sim.Millisecond)
	if ps.AnnouncementsSent < 5 {
		t.Fatalf("sent = %d", ps.AnnouncementsSent)
	}
	if cache.AnnouncementsHeard < 5 {
		t.Fatalf("heard = %d", cache.AnnouncementsHeard)
	}
}

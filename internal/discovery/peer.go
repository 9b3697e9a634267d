package discovery

import (
	"encoding/json"
	"sort"

	"aroma/internal/netsim"
	"aroma/internal/sim"
)

// This file implements the era's main alternative to Jini's centralized
// lookup: SSDP/UPnP-style peer announcement, in which every service
// multicasts its own presence periodically and clients maintain local
// caches with TTL expiry. It serves as the baseline comparator for the
// discovery experiment (C10): no lookup service to find or depend on,
// at the cost of per-service multicast traffic that grows linearly with
// the population.

// PortPeer is the port peer announcements use (distinct from the lookup
// protocol so both can run side by side in comparisons).
const PortPeer netsim.Port = 5

// DefaultPeerPeriod is how often a peer service announces itself.
const DefaultPeerPeriod = 5 * sim.Second

// DefaultPeerTTL is how long a cache entry lives without re-announce.
const DefaultPeerTTL = 3 * DefaultPeerPeriod

type peerAnnouncement struct {
	Item  Item  `json:"item"`
	TTLNS int64 `json:"ttl"`
	Bye   bool  `json:"bye,omitempty"` // graceful shutdown (ssdp:byebye)
}

// PeerService periodically multicasts one service's presence.
type PeerService struct {
	node    *netsim.Node
	item    Item
	ttl     sim.Time
	stop    func()
	stopped bool

	// AnnouncementsSent counts multicasts (for overhead accounting).
	AnnouncementsSent uint64
}

// AnnouncePeer starts announcing item from node every period (default
// DefaultPeerPeriod) with the given ttl (default DefaultPeerTTL). The
// first announcement is jittered uniformly within one period — without
// jitter, simultaneously booted appliances announce in phase forever and
// their unacknowledged multicasts collide every cycle (the SSDP sin).
func AnnouncePeer(node *netsim.Node, item Item, period, ttl sim.Time) *PeerService {
	if period <= 0 {
		period = DefaultPeerPeriod
	}
	if ttl <= 0 {
		ttl = DefaultPeerTTL
	}
	if item.Provider == 0 {
		item.Provider = node.Addr()
	}
	ps := &PeerService{node: node, item: item, ttl: ttl, stop: func() {}}
	announce := func() {
		if ps.stopped {
			return
		}
		data, _ := json.Marshal(peerAnnouncement{Item: ps.item, TTLNS: int64(ps.ttl)})
		node.SendMulticast(GroupDiscovery, PortPeer, data)
		ps.AnnouncementsSent++
	}
	k := node.Kernel()
	jitter := sim.Time(k.Rand().Float64() * float64(period))
	k.Schedule(jitter, "peer.firstAnnounce", func() {
		if ps.stopped {
			return
		}
		announce()
		ps.stop = k.Ticker(period, "peer.announce", announce)
	})
	return ps
}

// Stop halts announcements silently — a crash. Cache entries elsewhere
// survive until their TTL runs out.
func (ps *PeerService) Stop() {
	if ps.stopped {
		return
	}
	ps.stopped = true
	ps.stop()
}

// Bye sends a byebye message and stops: the graceful shutdown that lets
// caches drop the entry immediately.
//
//aroma:kept discovery model: the peer protocol's byebye, which PeerCache handles
func (ps *PeerService) Bye() {
	if ps.stopped {
		return
	}
	data, _ := json.Marshal(peerAnnouncement{Item: ps.item, Bye: true})
	ps.node.SendMulticast(GroupDiscovery, PortPeer, data)
	ps.AnnouncementsSent++
	ps.Stop()
}

// peerEntry is one cached sighting.
type peerEntry struct {
	item    Item
	expires sim.Time
}

// PeerCache is the client side: a local, instantly-queryable directory
// built purely from overheard announcements.
type PeerCache struct {
	node    *netsim.Node
	entries map[netsim.Addr]map[string]*peerEntry // provider -> name -> entry

	// OnAppear fires when a previously unknown service is cached.
	OnAppear func(Item)
	// OnExpire fires when an entry lapses (TTL) or says goodbye.
	OnExpire func(Item)

	// Stats
	AnnouncementsHeard uint64
	Expirations        uint64
}

// NewPeerCache attaches a peer cache to the node and begins listening.
// The TTL sweep runs at one-second granularity.
func NewPeerCache(node *netsim.Node) *PeerCache {
	pc := &PeerCache{node: node, entries: make(map[netsim.Addr]map[string]*peerEntry)}
	node.Join(GroupDiscovery)
	node.Handle(PortPeer, pc.onAnnounce)
	node.Kernel().Ticker(sim.Second, "peer.sweep", pc.sweep)
	return pc
}

func (pc *PeerCache) onAnnounce(src netsim.Addr, data []byte) {
	var ann peerAnnouncement
	if err := json.Unmarshal(data, &ann); err != nil {
		return
	}
	pc.AnnouncementsHeard++
	byName := pc.entries[ann.Item.Provider]
	if ann.Bye {
		if byName != nil {
			if e, ok := byName[ann.Item.Name]; ok {
				delete(byName, ann.Item.Name)
				if pc.OnExpire != nil {
					pc.OnExpire(e.item)
				}
			}
		}
		return
	}
	if byName == nil {
		byName = make(map[string]*peerEntry)
		pc.entries[ann.Item.Provider] = byName
	}
	_, known := byName[ann.Item.Name]
	byName[ann.Item.Name] = &peerEntry{
		item:    ann.Item,
		expires: pc.node.Kernel().Now() + sim.Time(ann.TTLNS),
	}
	if !known && pc.OnAppear != nil {
		pc.OnAppear(ann.Item)
	}
}

// sweep drops entries whose TTL has lapsed. Entries lapse in
// ascending (provider, name) order: OnExpire can schedule events and
// record traces, so expiry order must be identical on every run —
// iterating the maps directly would hand simultaneous expirations
// different kernel sequence numbers run to run.
func (pc *PeerCache) sweep() {
	now := pc.node.Kernel().Now()
	for _, provider := range pc.sortedProviders() {
		byName := pc.entries[provider]
		for _, name := range sortedNames(byName) {
			if e := byName[name]; now >= e.expires {
				delete(byName, name)
				pc.Expirations++
				if pc.OnExpire != nil {
					pc.OnExpire(e.item)
				}
			}
		}
		if len(byName) == 0 {
			delete(pc.entries, provider)
		}
	}
}

// sortedProviders returns the cached providers in ascending address
// order.
func (pc *PeerCache) sortedProviders() []netsim.Addr {
	providers := make([]netsim.Addr, 0, len(pc.entries))
	//aroma:ordered keys only; sorted before use
	for provider := range pc.entries {
		providers = append(providers, provider)
	}
	sort.Slice(providers, func(i, j int) bool { return providers[i] < providers[j] })
	return providers
}

// sortedNames returns one provider's service names in ascending order.
func sortedNames(byName map[string]*peerEntry) []string {
	names := make([]string, 0, len(byName))
	//aroma:ordered keys only; sorted before use
	for name := range byName {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Lookup returns cached items matching the template, in ascending
// (provider, name) order. Unlike the lookup service this is a purely
// local, zero-round-trip query — but it only knows what has been
// overheard and not yet expired. The order is part of the determinism
// contract: a client that takes the first match must resolve the same
// service on every run.
//
//aroma:kept discovery model: querying the peer directory, the serverless alternative to the lookup service
func (pc *PeerCache) Lookup(tmpl Template) []Item {
	var out []Item
	for _, provider := range pc.sortedProviders() {
		byName := pc.entries[provider]
		for _, name := range sortedNames(byName) {
			if e := byName[name]; tmpl.Matches(e.item) {
				out = append(out, e.item)
			}
		}
	}
	return out
}

// Count returns the number of live cache entries.
func (pc *PeerCache) Count() int {
	n := 0
	for _, byName := range pc.entries {
		n += len(byName)
	}
	return n
}

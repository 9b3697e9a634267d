// Package discovery implements the Jini-style service discovery the Aroma
// prototype is built on: a lookup service that appliances register with
// under leases, multicast announcement so clients self-configure with no
// administrator, attribute-template matching, remote events on
// registration changes, and downloadable mobile-code proxies.
//
// The paper's requirements realized here:
//
//   - "Service discovery, self-configuration, and dynamic resource
//     sharing": clients find the lookup service purely by listening to
//     multicast announcements.
//   - "Users are not system administrators": registrations are
//     lease-backed and vanish on their own after a provider crashes
//     (experiment C3 measures the self-cleaning time).
//   - "Mobile code and data": a registration may carry a serialized
//     mobilecode program that clients download and execute locally.
package discovery

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"

	"aroma/internal/lease"
	"aroma/internal/netsim"
	"aroma/internal/sim"
)

// Group and timing defaults for the discovery protocol.
const (
	// GroupDiscovery is the multicast group lookup announcements use.
	GroupDiscovery netsim.Group = 1

	// DefaultAnnouncePeriod is how often a lookup service announces.
	DefaultAnnouncePeriod = 5 * sim.Second

	// DefaultLeaseDuration is used when a registrant passes 0.
	DefaultLeaseDuration = 30 * sim.Second

	// MaxLeaseDuration caps what the lookup grants.
	MaxLeaseDuration = 5 * sim.Minute
)

// ServiceID identifies a registration within one lookup service.
type ServiceID uint64

// Item describes one registered service.
type Item struct {
	ID       ServiceID         `json:"id"`
	Name     string            `json:"name"`
	Type     string            `json:"type"`
	Attrs    map[string]string `json:"attrs,omitempty"`
	Provider netsim.Addr       `json:"provider"`
	Port     netsim.Port       `json:"port"`
	Proxy    []byte            `json:"proxy,omitempty"` // encoded mobilecode program
}

// Template selects services. Empty fields match anything; Attrs must be a
// subset of the item's attributes.
type Template struct {
	Type  string            `json:"type,omitempty"`
	Name  string            `json:"name,omitempty"`
	Attrs map[string]string `json:"attrs,omitempty"`
}

// Matches reports whether the item satisfies the template.
func (t Template) Matches(it Item) bool {
	if t.Type != "" && t.Type != it.Type {
		return false
	}
	if t.Name != "" && t.Name != it.Name {
		return false
	}
	//aroma:ordered pure conjunction over entries; the boolean result is order-independent
	for k, v := range t.Attrs {
		if it.Attrs[k] != v {
			return false
		}
	}
	return true
}

// Wire messages (JSON over netsim calls on PortDiscovery).

type request struct {
	Op      string    `json:"op"`
	Item    *Item     `json:"item,omitempty"`
	Tmpl    *Template `json:"tmpl,omitempty"`
	ID      ServiceID `json:"svc,omitempty"`
	SubID   uint64    `json:"sub,omitempty"`
	LeaseNS int64     `json:"lease,omitempty"`
}

type response struct {
	OK      bool      `json:"ok"`
	Err     string    `json:"err,omitempty"`
	ID      ServiceID `json:"svc,omitempty"`
	SubID   uint64    `json:"sub,omitempty"`
	LeaseNS int64     `json:"lease,omitempty"`
	Items   []Item    `json:"items,omitempty"`
}

type announcement struct {
	Lookup netsim.Addr `json:"lookup"`
}

// EventKind tags registration-change events sent to subscribers.
type EventKind string

// Event kinds.
const (
	EventRegistered   EventKind = "registered"
	EventDeregistered EventKind = "deregistered"
)

// Event is a remote event delivered to subscribers on PortEvents.
type Event struct {
	Kind EventKind `json:"kind"`
	Item Item      `json:"item"`
}

// Lookup is the lookup service. Attach it to a node with NewLookup, then
// Start it to begin announcing and serving.
type Lookup struct {
	node         *netsim.Node
	leases       *lease.Table
	items        map[ServiceID]*registration
	subs         map[uint64]*subscription
	nextID       ServiceID
	nextSub      uint64
	stopAnnounce func()

	// downDepth is the fault-outage window depth (FaultDown): while
	// positive the server neither serves requests nor announces.
	// announceHeld remembers that announcements were running when the
	// first window opened, so recovery resumes them.
	downDepth    int
	announceHeld bool

	// AnnouncePeriod overrides DefaultAnnouncePeriod when > 0.
	AnnouncePeriod sim.Time

	// Stats
	Registrations   uint64
	Expirations     uint64
	Cancellations   uint64
	LookupsServed   uint64
	EventsDelivered uint64
}

type registration struct {
	item  Item
	lease *lease.Lease
}

type subscription struct {
	id     uint64
	client netsim.Addr
	tmpl   Template
	lease  *lease.Lease
}

// NewLookup creates a lookup service on the given node.
func NewLookup(node *netsim.Node) *Lookup {
	tbl := lease.NewTable(node.Kernel())
	tbl.MaxDuration = MaxLeaseDuration
	l := &Lookup{
		node:   node,
		leases: tbl,
		items:  make(map[ServiceID]*registration),
		subs:   make(map[uint64]*subscription),
	}
	node.HandleRequest(netsim.PortDiscovery, l.serve)
	return l
}

// Addr returns the lookup's network address.
func (l *Lookup) Addr() netsim.Addr { return l.node.Addr() }

// Count returns the number of live registrations.
func (l *Lookup) Count() int { return len(l.items) }

// Leases returns the lookup's lease table, for observability (grant,
// renewal, and expiry counters live on the table).
func (l *Lookup) Leases() *lease.Table { return l.leases }

// Start begins periodic multicast announcements.
func (l *Lookup) Start() {
	if l.stopAnnounce != nil {
		return
	}
	period := l.AnnouncePeriod
	if period <= 0 {
		period = DefaultAnnouncePeriod
	}
	announce := func() {
		data, _ := json.Marshal(announcement{Lookup: l.Addr()})
		l.node.SendMulticast(GroupDiscovery, netsim.PortDiscovery, data)
	}
	// First announcement goes out immediately so cold-start discovery is
	// bounded by propagation, not by the announce period.
	l.node.Kernel().Schedule(0, "discovery.firstAnnounce", announce)
	l.stopAnnounce = l.node.Kernel().Ticker(period, "discovery.announce", announce)
}

// Stop halts announcements (registrations and leases keep running).
func (l *Lookup) Stop() {
	if l.stopAnnounce != nil {
		l.stopAnnounce()
		l.stopAnnounce = nil
	}
}

// FaultDown adjusts the server-outage fault depth by delta. While the
// depth is positive the lookup is a dead box: its request handler is
// unregistered — clients' register/renew/lookup calls time out rather
// than erroring fast, exactly the signature of a crashed server — and
// its announcements stop. Leases keep expiring on the kernel clock, so
// a long enough outage organically sheds every registration. Recovery
// reinstates the handler and, if announcements were running when the
// outage began, resumes them. Overlapping windows nest.
func (l *Lookup) FaultDown(delta int) {
	was := l.downDepth > 0
	l.downDepth += delta
	if l.downDepth < 0 {
		l.downDepth = 0
	}
	is := l.downDepth > 0
	if is == was {
		return
	}
	if is {
		l.announceHeld = l.stopAnnounce != nil
		l.Stop()
		l.node.HandleRequest(netsim.PortDiscovery, nil)
	} else {
		l.node.HandleRequest(netsim.PortDiscovery, l.serve)
		if l.announceHeld {
			l.announceHeld = false
			l.Start()
		}
	}
}

// FaultedDown reports whether a server-outage window is open.
func (l *Lookup) FaultedDown() bool { return l.downDepth > 0 }

// serve handles one discovery request.
func (l *Lookup) serve(src netsim.Addr, data []byte) []byte {
	var req request
	if err := json.Unmarshal(data, &req); err != nil {
		return mustJSON(response{Err: "bad request: " + err.Error()})
	}
	switch req.Op {
	case "register":
		return l.serveRegister(src, req)
	case "renew":
		return l.serveRenew(req)
	case "cancel":
		return l.serveCancel(req)
	case "lookup":
		return l.serveLookup(req)
	case "subscribe":
		return l.serveSubscribe(src, req)
	case "unsubscribe":
		return l.serveUnsubscribe(req)
	default:
		return mustJSON(response{Err: fmt.Sprintf("unknown op %q", req.Op)})
	}
}

func (l *Lookup) serveRegister(src netsim.Addr, req request) []byte {
	if req.Item == nil {
		return mustJSON(response{Err: "register: missing item"})
	}
	d := sim.Time(req.LeaseNS)
	if d <= 0 {
		d = DefaultLeaseDuration
	}
	l.nextID++
	id := l.nextID
	item := *req.Item
	item.ID = id
	if item.Provider == 0 {
		item.Provider = src
	}
	reg := &registration{item: item}
	lse, err := l.leases.Grant(item.Name, d, func() {
		// Lease lapsed: self-clean the registration.
		if cur, ok := l.items[id]; ok && cur == reg {
			delete(l.items, id)
			l.Expirations++
			l.notify(EventDeregistered, cur.item)
		}
	})
	if err != nil {
		return mustJSON(response{Err: "register: " + err.Error()})
	}
	reg.lease = lse
	l.items[id] = reg
	l.Registrations++
	l.notify(EventRegistered, item)
	return mustJSON(response{OK: true, ID: id, LeaseNS: int64(lse.Expires() - l.node.Kernel().Now())})
}

func (l *Lookup) serveRenew(req request) []byte {
	reg, ok := l.items[req.ID]
	if !ok {
		return mustJSON(response{Err: "renew: unknown registration"})
	}
	d := sim.Time(req.LeaseNS)
	if d <= 0 {
		d = DefaultLeaseDuration
	}
	if err := l.leases.Renew(reg.lease, d); err != nil {
		return mustJSON(response{Err: "renew: " + err.Error()})
	}
	return mustJSON(response{OK: true, ID: req.ID, LeaseNS: int64(d)})
}

func (l *Lookup) serveCancel(req request) []byte {
	reg, ok := l.items[req.ID]
	if !ok {
		return mustJSON(response{Err: "cancel: unknown registration"})
	}
	delete(l.items, req.ID)
	_ = l.leases.Release(reg.lease)
	l.Cancellations++
	l.notify(EventDeregistered, reg.item)
	return mustJSON(response{OK: true})
}

func (l *Lookup) serveLookup(req request) []byte {
	l.LookupsServed++
	tmpl := Template{}
	if req.Tmpl != nil {
		tmpl = *req.Tmpl
	}
	var out []Item
	//aroma:ordered matches are sorted by ServiceID immediately below
	for _, reg := range l.items {
		if tmpl.Matches(reg.item) {
			out = append(out, reg.item)
		}
	}
	// Items live in a map; return them sorted by ServiceID so every run
	// with a given seed resolves the same service (and clients that take
	// the first match behave reproducibly).
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return mustJSON(response{OK: true, Items: out})
}

func (l *Lookup) serveSubscribe(src netsim.Addr, req request) []byte {
	tmpl := Template{}
	if req.Tmpl != nil {
		tmpl = *req.Tmpl
	}
	d := sim.Time(req.LeaseNS)
	if d <= 0 {
		d = DefaultLeaseDuration
	}
	l.nextSub++
	id := l.nextSub
	sub := &subscription{id: id, client: src, tmpl: tmpl}
	lse, err := l.leases.Grant(fmt.Sprintf("sub-%d", id), d, func() {
		delete(l.subs, id)
	})
	if err != nil {
		return mustJSON(response{Err: "subscribe: " + err.Error()})
	}
	sub.lease = lse
	l.subs[id] = sub
	return mustJSON(response{OK: true, SubID: id, LeaseNS: int64(d)})
}

func (l *Lookup) serveUnsubscribe(req request) []byte {
	sub, ok := l.subs[req.SubID]
	if !ok {
		return mustJSON(response{Err: "unsubscribe: unknown subscription"})
	}
	delete(l.subs, req.SubID)
	_ = l.leases.Release(sub.lease)
	return mustJSON(response{OK: true})
}

// notify delivers a registration-change event to matching subscribers in
// ascending subscription-ID order. Subscriptions live in a map; iterating
// it directly would hand simultaneous deliveries different kernel
// sequence numbers on every run, breaking seed reproducibility.
func (l *Lookup) notify(kind EventKind, item Item) {
	ids := make([]uint64, 0, len(l.subs))
	//aroma:ordered keys only; sorted before delivery
	for id := range l.subs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		sub := l.subs[id]
		if !sub.tmpl.Matches(item) {
			continue
		}
		data, _ := json.Marshal(Event{Kind: kind, Item: item})
		l.node.SendDatagram(sub.client, netsim.PortEvents, data)
		l.EventsDelivered++
	}
}

func mustJSON(v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err) // wire structs are always marshalable
	}
	return data
}

// Agent is the client side of the discovery protocol: it listens for
// lookup announcements and provides register/lookup/subscribe calls.
type Agent struct {
	node   *netsim.Node
	lookup netsim.Addr
	found  bool

	// OnLookupFound fires the first time a lookup service is discovered
	// (and again if the lookup address changes).
	OnLookupFound func(addr netsim.Addr)

	// OnEvent receives remote events for this agent's subscriptions.
	OnEvent func(Event)

	// Stats
	AnnouncementsHeard uint64
}

// NewAgent creates an agent on the node and joins the discovery group.
func NewAgent(node *netsim.Node) *Agent {
	a := &Agent{node: node}
	node.Join(GroupDiscovery)
	node.Handle(netsim.PortDiscovery, a.onAnnounce)
	node.Handle(netsim.PortEvents, a.onEvent)
	return a
}

// Forget models a reboot wiping the agent's discovery memory: the
// learned lookup address is dropped, so calls fail ErrNoLookup until
// the next announcement is heard and OnLookupFound fires again. The
// fault plane's device-crash restart invokes it; handlers and
// subscriptions on the lookup side are untouched (their leases decide
// their fate).
func (a *Agent) Forget() {
	a.lookup = 0
	a.found = false
}

func (a *Agent) onAnnounce(src netsim.Addr, data []byte) {
	var ann announcement
	if err := json.Unmarshal(data, &ann); err != nil {
		return
	}
	a.AnnouncementsHeard++
	changed := !a.found || a.lookup != ann.Lookup
	a.lookup = ann.Lookup
	a.found = true
	if changed && a.OnLookupFound != nil {
		a.OnLookupFound(ann.Lookup)
	}
}

func (a *Agent) onEvent(src netsim.Addr, data []byte) {
	var ev Event
	if err := json.Unmarshal(data, &ev); err != nil {
		return
	}
	if a.OnEvent != nil {
		a.OnEvent(ev)
	}
}

// Errors returned by agent calls.
var (
	ErrNoLookup = errors.New("discovery: no lookup service discovered yet")
	ErrDenied   = errors.New("discovery: request denied")
)

// call performs one discovery RPC against the discovered lookup.
func (a *Agent) call(req request, done func(response, error)) {
	if done == nil {
		done = func(response, error) {}
	}
	if !a.found {
		done(response{}, ErrNoLookup)
		return
	}
	data := mustJSON(req)
	a.node.Call(a.lookup, netsim.PortDiscovery, data, 0, func(respData []byte, err error) {
		if err != nil {
			done(response{}, err)
			return
		}
		var resp response
		if err := json.Unmarshal(respData, &resp); err != nil {
			done(response{}, err)
			return
		}
		if !resp.OK {
			done(resp, fmt.Errorf("%w: %s", ErrDenied, resp.Err))
			return
		}
		done(resp, nil)
	})
}

// Registration is the client-side handle for a registered service.
type Registration struct {
	agent     *Agent
	ID        ServiceID
	LeaseDur  sim.Time
	stopRenew func()
}

// Register registers an item with the discovered lookup service. done
// receives the handle or an error.
func (a *Agent) Register(item Item, leaseDur sim.Time, done func(*Registration, error)) {
	a.call(request{Op: "register", Item: &item, LeaseNS: int64(leaseDur)}, func(resp response, err error) {
		if done == nil {
			return
		}
		if err != nil {
			done(nil, err)
			return
		}
		done(&Registration{agent: a, ID: resp.ID, LeaseDur: sim.Time(resp.LeaseNS)}, nil)
	})
}

// Renew extends the registration's lease by its original duration.
func (r *Registration) Renew(done func(error)) {
	r.agent.call(request{Op: "renew", ID: r.ID, LeaseNS: int64(r.LeaseDur)}, func(_ response, err error) {
		if done != nil {
			done(err)
		}
	})
}

// Cancel removes the registration.
//
//aroma:kept discovery model: Jini's explicit deregistration, served by the lookup's cancel op
func (r *Registration) Cancel(done func(error)) {
	r.StopAutoRenew()
	r.agent.call(request{Op: "cancel", ID: r.ID}, func(_ response, err error) {
		if done != nil {
			done(err)
		}
	})
}

// AutoRenew renews the registration every interval until StopAutoRenew or
// Cancel. Renewal failures are silent (the registration will lapse, which
// is the lease model's crash behaviour).
func (r *Registration) AutoRenew(interval sim.Time) {
	if r.stopRenew != nil {
		return
	}
	r.stopRenew = r.agent.node.Kernel().Ticker(interval, "discovery.autoRenew", func() {
		r.Renew(nil)
	})
}

// StopAutoRenew halts automatic renewal (simulating a crashed provider).
func (r *Registration) StopAutoRenew() {
	if r.stopRenew != nil {
		r.stopRenew()
		r.stopRenew = nil
	}
}

// Lookup queries the discovered lookup service for items matching tmpl.
func (a *Agent) Lookup(tmpl Template, done func([]Item, error)) {
	a.call(request{Op: "lookup", Tmpl: &tmpl}, func(resp response, err error) {
		if done == nil {
			return
		}
		if err != nil {
			done(nil, err)
			return
		}
		done(resp.Items, nil)
	})
}

// Subscribe registers for remote events on registrations matching tmpl.
func (a *Agent) Subscribe(tmpl Template, leaseDur sim.Time, done func(subID uint64, err error)) {
	a.call(request{Op: "subscribe", Tmpl: &tmpl, LeaseNS: int64(leaseDur)}, func(resp response, err error) {
		if done == nil {
			return
		}
		if err != nil {
			done(0, err)
			return
		}
		done(resp.SubID, nil)
	})
}

// Unsubscribe cancels a subscription.
//
//aroma:kept discovery model: Jini's event unsubscription, served by the lookup's unsubscribe op
func (a *Agent) Unsubscribe(subID uint64, done func(error)) {
	a.call(request{Op: "unsubscribe", SubID: subID}, func(_ response, err error) {
		if done != nil {
			done(err)
		}
	})
}

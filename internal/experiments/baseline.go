package experiments

import (
	"fmt"

	"aroma/internal/discovery"
	"aroma/internal/geo"
	"aroma/internal/metrics"
	"aroma/internal/netsim"
	"aroma/internal/sim"
	"aroma/pkg/aroma"
)

// C10 compares the Aroma/Jini centralized lookup service against the
// era's main alternative — SSDP/UPnP-style peer announcement — on the
// axes the paper's discovery discussion cares about: how fast a client
// learns the service population, how much multicast traffic the scheme
// costs as the population grows, and how both self-clean after a crash.
//
// The paper built on Jini; the baseline quantifies what that choice
// bought (flat multicast overhead, authoritative queries) and what it
// cost (a lookup service to find, a round trip per query).
func C10(seed int64) *Result {
	r := &Result{ID: "C10", Title: "Discovery architectures: centralized lookup vs peer announcement"}

	// The lookup announces as often as each peer service does: 5 s.
	const period = discovery.PeerPeriod
	const observeFor = time30s
	type outcome struct {
		learnSeconds   float64
		mcastPerMinute float64
	}

	measureLookup := func(n int) outcome {
		w := aroma.NewWorld(aroma.WithSeed(seed), aroma.WithArena(120, 60))
		lk := discovery.NewLookup(w.AddDevice("lookup", geo.Pt(60, 30)).Node())
		lk.AnnouncePeriod = period
		lk.Start()
		// Providers register (they must discover the lookup first).
		for i := 0; i < n; i++ {
			ag := w.AddDevice(fmt.Sprintf("prov-%d", i), geo.Pt(float64(10+2*i), 20)).Agent()
			name := fmt.Sprintf("svc-%d", i)
			ag.OnLookupFound = func(addr netsim.Addr) {
				ag.Register(discovery.Item{Name: name, Type: "appliance"}, sim.Minute, func(g *discovery.Registration, err error) {
					if g != nil {
						g.AutoRenew(20 * sim.Second)
					}
				})
			}
		}
		w.RunUntil(20 * sim.Second)
		// A client powers on: time until it can enumerate everything.
		joined := w.Now()
		cli := w.AddDevice("client", geo.Pt(60, 40)).Agent()
		learned := sim.Time(-1)
		cli.OnLookupFound = func(netsim.Addr) {
			cli.Lookup(discovery.Template{Type: "appliance"}, func(items []discovery.Item, err error) {
				if err == nil && len(items) == n && learned < 0 {
					learned = w.Now() - joined
				}
			})
		}
		w.RunFor(observeFor)
		// Multicast overhead: the lookup announces once per period
		// regardless of n.
		perMin := 60.0 / period.Seconds()
		out := outcome{learnSeconds: -1, mcastPerMinute: perMin}
		if learned >= 0 {
			out.learnSeconds = learned.Seconds()
		}
		return out
	}

	measurePeer := func(n int) outcome {
		w := aroma.NewWorld(aroma.WithSeed(seed), aroma.WithArena(120, 60))
		services := make([]*discovery.PeerService, 0, n)
		for i := 0; i < n; i++ {
			node := w.AddDevice(fmt.Sprintf("prov-%d", i), geo.Pt(float64(10+2*i), 20)).Node()
			services = append(services, discovery.AnnouncePeer(node,
				discovery.Item{Name: fmt.Sprintf("svc-%d", i), Type: "appliance"}))
		}
		w.RunUntil(20 * sim.Second)
		joined := w.Now()
		cache := discovery.NewPeerCache(w.AddDevice("client", geo.Pt(60, 40)).Node())
		learned := sim.Time(-1)
		cache.OnAppear = func(discovery.Item) {
			if learned < 0 && cache.Count() == n {
				learned = w.Now() - joined
			}
		}
		before := uint64(0)
		for _, s := range services {
			before += s.AnnouncementsSent
		}
		w.RunFor(observeFor)
		after := uint64(0)
		for _, s := range services {
			after += s.AnnouncementsSent
		}
		out := outcome{
			learnSeconds:   -1,
			mcastPerMinute: float64(after-before) / observeFor.Seconds() * 60,
		}
		if learned >= 0 {
			out.learnSeconds = learned.Seconds()
		}
		return out
	}

	tbl := metrics.NewTable("Centralized lookup vs peer announcement (announce period 5 s)",
		"services", "lookup: learn s", "lookup: mcast/min", "peer: learn s", "peer: mcast/min")
	overhead := &metrics.Series{Name: "peer multicast overhead", XLabel: "services", YLabel: "mcast/min"}
	var lkLast, peerLast outcome
	for _, n := range []int{2, 8, 16} {
		lo := measureLookup(n)
		po := measurePeer(n)
		tbl.AddRow(n, lo.learnSeconds, lo.mcastPerMinute, po.learnSeconds, po.mcastPerMinute)
		overhead.Add(float64(n), po.mcastPerMinute)
		lkLast, peerLast = lo, po
	}
	tbl.AddNote("lookup queries are authoritative round trips; peer cache queries are local but only as fresh as the last announcement")
	r.Tables = append(r.Tables, tbl)
	r.Series = append(r.Series, overhead)

	// Shape: both learn within ~one announce period; peer multicast
	// overhead grows with population while the lookup's stays flat.
	r.ShapeOK = lkLast.learnSeconds >= 0 && lkLast.learnSeconds < 1.5*period.Seconds() &&
		peerLast.learnSeconds >= 0 && peerLast.learnSeconds < 1.5*period.Seconds() &&
		peerLast.mcastPerMinute > 4*lkLast.mcastPerMinute
	r.ShapeWhy = "both discover within one announce period; peer announcement pays linearly growing multicast overhead where the lookup pays a flat one"
	return r
}

// time30s is the observation window for overhead accounting.
const time30s = 30 * sim.Second

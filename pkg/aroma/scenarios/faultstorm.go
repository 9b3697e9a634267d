// Faultstorm: the fault plane's demonstration and chaos-regression
// scenario — a discovery-centric world (one lookup service, a grid of
// appliances holding auto-renewed leases, clients polling by type)
// battered by the default fault plan: device crashes with amnesiac
// restarts, a radio blackout, a wide-band jam burst, an arena
// partition, and a lookup-server outage. Every failure is a scheduled
// kernel event off the dedicated fault RNG stream, so the storm is
// bit-reproducible: the CI chaos job runs it twice per seed and diffs
// digests, and the determinism suite snapshots it mid-fault.
//
// Pass cfg.Faults (aromasim -faults, a sweep's fault arm) to replace
// the default plan. The over-ride "none" runs the same world clean,
// which makes fault impact directly measurable cell-to-cell.

package scenarios

import (
	"fmt"

	"aroma/internal/discovery"
	"aroma/internal/fault"
	"aroma/internal/netsim"
	"aroma/pkg/aroma"
	"aroma/pkg/aroma/scenario"
)

// DefaultFaultstormPlan is the storm the scenario arms when the config
// carries no plan of its own: overlapping crash/radio/jam windows, one
// partition, and one lookup outage inside the default 2 min horizon.
const DefaultFaultstormPlan = "crash:at=20s,for=10s,every=25s,n=3;" +
	"radio:at=35s,for=8s;" +
	"jam:at=15s,for=10s,loss=30;" +
	"partition:at=50s,for=15s;" +
	"outage:at=75s,for=20s"

func init() {
	scenario.Register("faultstorm",
		"discovery world under the deterministic fault plane: crashes, jamming, partition, outage",
		buildFaultstorm)
}

func buildFaultstorm(cfg scenario.Config) (*scenario.Built, error) {
	var (
		devices = cfg.ParamIntOr("devices", 12)
		sideM   = cfg.ParamFloatOr("side", 60.0)
	)
	planStr := cfg.Faults
	if planStr == "" {
		planStr = DefaultFaultstormPlan
	}
	if planStr == "none" {
		planStr = "" // the clean control arm
	}
	plan, err := fault.Parse(planStr)
	if err != nil {
		return nil, err
	}

	w := aroma.NewWorld(
		aroma.WithName("fault-storm"),
		aroma.WithSeed(cfg.SeedOr(13)),
		aroma.WithArena(sideM, sideM),
		aroma.WithTraceMin(aroma.Info),
	)
	if err := w.ApplyFaults(plan); err != nil {
		return nil, err
	}

	// The lookup sits left of the arena midline, so a partition window
	// severs it from every device on the right half.
	lookup := w.AddLookup("lookup", aroma.Pt(sideM/4, sideM/2))

	// Appliances spread across both halves, each registering under an
	// auto-renewed lease as soon as it hears an announcement — and
	// re-registering the same way after a crash wipes its memory, since
	// OnLookupFound fires again on the next announcement heard.
	var registered, regFailed uint64
	for i := 0; i < devices; i++ {
		kind := fmt.Sprintf("appliance-%02d", i)
		x := sideM * float64(1+i%4) / 5
		y := sideM * float64(1+i/4%4) / 5
		dev := w.AddDevice(kind, aroma.Pt(x, y), aroma.WithSpec(aroma.AdapterSpec()))
		agent := dev.Agent()
		agent.OnLookupFound = func(netsim.Addr) {
			agent.Register(discovery.Item{
				Name: kind + "-svc", Type: "appliance",
			}, 20*aroma.Second, func(r *discovery.Registration, err error) {
				if err != nil {
					regFailed++
					return
				}
				registered++
				r.AutoRenew(8 * aroma.Second)
			})
		}
	}

	// Two pollers, one per half, query the registry every few seconds:
	// their timeout counts trace outages and partitions directly.
	var lookupsOK, lookupsFailed uint64
	poll := func(name string, pos aroma.Point) {
		dev := w.AddDevice(name, pos, aroma.WithSpec(aroma.AdapterSpec()))
		agent := dev.Agent()
		w.Schedule(3*aroma.Second, name+".pollStart", func() {
			w.Ticker(5*aroma.Second, name+".poll", func() {
				agent.Lookup(discovery.Template{Type: "appliance"}, func(items []discovery.Item, err error) {
					if err != nil {
						lookupsFailed++
						return
					}
					lookupsOK++
				})
			})
		})
	}
	poll("poller-west", aroma.Pt(sideM/8, sideM/3))
	poll("poller-east", aroma.Pt(sideM*7/8, sideM*2/3))

	finish := func(res *scenario.Result) {
		med := w.Medium()
		st := w.ExportState()
		injected := uint64(0)
		if st.Faults != nil {
			injected = st.Faults.Crashes + st.Faults.RadioDowns + st.Faults.Jams +
				st.Faults.Partitions + st.Faults.Outages
		}
		cfg.Printf("fault storm: %d appliances + 2 pollers over %.0fx%.0f m, plan %q\n",
			devices, sideM, sideM, w.FaultPlan())
		cfg.Printf("faults injected: %d; registry holds %d services (%d registrations, %d expirations)\n",
			injected, lookup.Count(), lookup.Registrations, lookup.Expirations)
		cfg.Printf("polls: %d ok, %d failed; medium: %d sent, %d delivered, %d lost\n",
			lookupsOK, lookupsFailed, med.Sent, med.Delivered, med.Lost)
		res.Metric("injected", float64(injected))
		res.Metric("registered", float64(registered))
		res.Metric("reg_failed", float64(regFailed))
		res.Metric("expirations", float64(lookup.Expirations))
		res.Metric("polls_ok", float64(lookupsOK))
		res.Metric("polls_failed", float64(lookupsFailed))
		res.Metric("lost", float64(med.Lost))
	}
	return &scenario.Built{World: w, Horizon: cfg.HorizonOr(2 * aroma.Minute), Finish: finish}, nil
}

// Smartspace: a room full of information appliances sharing one 2.4 GHz
// band and one lookup service — the paper's "smart spaces" setting.
// Demonstrates dynamic arrival/departure, lease self-cleaning after
// crashes, subscription events, and the per-device cost of band
// concentration.

package scenarios

import (
	"fmt"

	"aroma/internal/discovery"
	"aroma/internal/netsim"
	"aroma/pkg/aroma"
	"aroma/pkg/aroma/scenario"
)

func init() {
	scenario.Register("smartspace",
		"a room of appliances: dynamic discovery, lease self-cleaning, band load",
		buildSmartSpace)
}

func buildSmartSpace(cfg scenario.Config) (*scenario.Built, error) {
	w := aroma.NewWorld(
		aroma.WithName("smart-space"),
		aroma.WithSeed(cfg.SeedOr(7)),
		aroma.WithArena(40, 40),
	)

	lookup := w.AddLookup("lookup", aroma.Pt(20, 20))

	// A control panel subscribes to every appliance event in the room.
	panel := w.AddDevice("panel", aroma.Pt(20, 5), aroma.WithSpec(aroma.AdapterSpec()))
	panel.Agent().OnEvent = func(ev discovery.Event) {
		cfg.Printf("[%8s] panel: %s %q (%s)\n", w.Now(), ev.Kind, ev.Item.Name, ev.Item.Type)
	}
	w.Schedule(aroma.Second, "panel-subscribe", func() {
		panel.Agent().Subscribe(discovery.Template{}, 10*aroma.Minute, func(id uint64, err error) {
			if err != nil {
				panic(err)
			}
		})
	})

	// Appliances power on over the first minute: lights, sensors, a
	// printer, a coffee maker...
	kinds := []string{"light", "thermometer", "printer", "coffee-maker", "door-lock", "hvac", "camera", "speaker"}
	registrations := make(map[string]*discovery.Registration)
	for i, kind := range kinds {
		i, kind := i, kind
		w.Schedule(2*aroma.Second+aroma.Time(i+1)*5*aroma.Second, "poweron", func() {
			pos := aroma.Pt(float64(5+4*i%30), float64(5+(i*9)%30))
			dev := w.AddDevice(kind, pos, aroma.WithSpec(aroma.AdapterSpec()))
			agent := dev.Agent()
			// Self-configuration: register as soon as the first lookup
			// announcement is heard — no addresses configured anywhere.
			agent.OnLookupFound = func(netsim.Addr) {
				agent.Register(discovery.Item{
					Name: fmt.Sprintf("%s-1", kind), Type: kind,
					Attrs: map[string]string{"room": "215"},
				}, 30*aroma.Second, func(r *discovery.Registration, err error) {
					if err != nil {
						cfg.Printf("[%8s] %s registration failed: %v\n", w.Now(), kind, err)
						return
					}
					registrations[kind] = r
					r.AutoRenew(10 * aroma.Second)
				})
			}
		})
	}
	// A client queries by type once the room has settled.
	w.Schedule(aroma.Minute, "panel-query", func() {
		cfg.Printf("[%8s] registry holds %d services\n", w.Now(), lookup.Count())
		panel.Agent().Lookup(discovery.Template{Type: "printer"}, func(items []discovery.Item, err error) {
			if err == nil {
				cfg.Printf("[%8s] panel finds %d printer(s)\n", w.Now(), len(items))
			}
		})
	})

	// The coffee maker crashes (stops renewing); the registry self-heals
	// within one lease period — no administrator.
	w.Schedule(aroma.Minute+5*aroma.Second, "coffee-crash", func() {
		if r := registrations["coffee-maker"]; r != nil {
			r.StopAutoRenew()
			cfg.Printf("[%8s] coffee-maker crashes (renewals stop)\n", w.Now())
		}
	})

	finish := func(res *scenario.Result) {
		cfg.Printf("[%8s] registry holds %d services after self-cleaning\n", w.Now(), lookup.Count())

		// Band concentration: how busy did the shared channel get?
		med := w.Medium()
		cfg.Printf("medium totals: %d frames sent, %d delivered, %d lost to the shared band\n",
			med.Sent, med.Delivered, med.Lost)
		res.Report = w.Analyze()
	}
	return &scenario.Built{World: w, Horizon: cfg.HorizonOr(2 * aroma.Minute), Finish: finish}, nil
}

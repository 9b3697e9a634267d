// Mobiledense: the ROADMAP's "dense + mobile" workload — hundreds of
// random-waypoint radios beaconing across the whole 802.11b band while
// every one of them is in constant motion. With position samples every
// 200 ms, a per-move wipe of the candidate caches would rebuild every
// one of them a few thousand times per simulated second. Cell-granular
// invalidation makes the common case (a move inside one grid cell)
// free, so the scenario doubles as the regression workload for the
// mobile PHY hot path.
//
// The determinism suite runs it twice per seed (bit-identical digests)
// and against the exact medium with the cutoff disabled (digest match
// while the index prunes nothing); internal/radio runs it with the
// brute-force hearer oracle checked every 50 ms of a 30 s run.

package scenarios

import (
	"encoding/binary"
	"fmt"

	"aroma/internal/netsim"
	"aroma/pkg/aroma"
	"aroma/pkg/aroma/scenario"
)

func init() {
	scenario.Register("mobiledense",
		"hundreds of random-waypoint radios: the mobile-dense PHY hot path",
		func(cfg scenario.Config) (*scenario.Built, error) { return buildMobileDense(cfg) },
	)
}

// buildMobileDense assembles the mobile-dense world without running it.
// The extra options let the determinism suite run the identical
// workload over other medium configurations (cutoff, grid cell).
func buildMobileDense(cfg scenario.Config, extra ...aroma.Option) (*scenario.Built, error) {
	// Sweepable axes (classic values when unset): radios, side (m),
	// speed (m/s), beacon (ms).
	var (
		devices  = cfg.ParamIntOr("radios", 200)
		sideM    = cfg.ParamFloatOr("side", 500.0)
		speedMPS = cfg.ParamFloatOr("speed", 1.4) // brisk walking pace
		beaconMS = cfg.ParamIntOr("beacon", 500)
	)
	const (
		groupRovers netsim.Group = 9
		portBeacon  netsim.Port  = 1050
		portProbe   netsim.Port  = 1051
	)
	opts := []aroma.Option{
		aroma.WithName("mobile-dense"),
		aroma.WithSeed(cfg.SeedOr(1)),
		aroma.WithArena(sideM, sideM),
		// 0 dBm transmitters against the -100 dBm cutoff give a ~100 m
		// hearing range: local neighbourhoods on a 500 m floor, so the
		// spatial index has real work to skip.
		aroma.WithRadioDefaults(6, 0),
		aroma.WithRadioCutoff(-100),
		aroma.WithTraceMin(aroma.Issue),
	}
	opts = append(opts, extra...)
	w := aroma.NewWorld(opts...)

	rng := w.Kernel().Rand()
	var probesHeard uint64
	nodes := make([]*netsim.Node, devices)
	for i := range nodes {
		pos := aroma.Pt(rng.Float64()*sideM, rng.Float64()*sideM)
		dev := w.AddDevice(fmt.Sprintf("rover-%03d", i), pos, aroma.WithChannel(1+i%11))
		dev.Wander(speedMPS, 0)
		nd := dev.Node()
		nd.Join(groupRovers)
		heard := 0
		nd.Handle(portBeacon, func(src netsim.Addr, data []byte) {
			heard++
			// Every few beacons heard, probe the beaconer back over
			// unicast — receipt order feeds MAC contention, the shape
			// that catches nondeterministic iteration on the hot path.
			if heard%5 == 0 {
				nd.SendDatagram(src, portProbe, data)
			}
		})
		nd.Handle(portProbe, func(netsim.Addr, []byte) { probesHeard++ })
		nodes[i] = nd
	}

	// Phase-staggered multicast beacons, exactly the densitysweep shape —
	// but here every beaconer is also walking, so the medium revalidates
	// candidate caches between nearly every pair of transmissions.
	for i := range nodes {
		nd := nodes[i]
		payload := binary.BigEndian.AppendUint32(nil, uint32(i))
		phase := aroma.Time(rng.Intn(beaconMS)) * aroma.Millisecond
		w.Schedule(phase, "mobile.beaconStart", func() {
			send := func() { nd.SendMulticast(groupRovers, portBeacon, payload) }
			send()
			w.Ticker(aroma.Time(beaconMS)*aroma.Millisecond, "mobile.beacon", send)
		})
	}

	finish := func(res *scenario.Result) {
		med := w.Medium()
		legs := 0
		for _, d := range w.Devices() {
			if wd := d.Wanderer(); wd != nil {
				legs += wd.Legs()
			}
		}
		cfg.Printf("mobile dense: %d random-waypoint radios at %.1f m/s over %.0fx%.0f m\n",
			med.Radios(), speedMPS, sideM, sideM)
		cfg.Printf("medium: %d frames sent, %d receipts delivered, %d lost to SINR\n",
			med.Sent, med.Delivered, med.Lost)
		cfg.Printf("mobility: %d wander legs; probes heard: %d; %d kernel events in %s\n",
			legs, probesHeard, w.Kernel().Steps(), w.Now())
		if cfg.Verbose {
			lossPct := 0.0
			if med.Delivered+med.Lost > 0 {
				lossPct = 100 * float64(med.Lost) / float64(med.Delivered+med.Lost)
			}
			cfg.Printf("receipt loss rate: %.1f%% while everything moves\n", lossPct)
		}
		res.Metric("sent", float64(med.Sent))
		res.Metric("delivered", float64(med.Delivered))
		res.Metric("lost", float64(med.Lost))
		res.Metric("probes", float64(probesHeard))
		res.Metric("legs", float64(legs))
	}
	return &scenario.Built{World: w, Horizon: cfg.HorizonOr(2 * aroma.Second), Finish: finish}, nil
}

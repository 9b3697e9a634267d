// Densitysweep: the paper's device-concentration question ("the effect
// of a high concentration of these devices needs to be studied") pushed
// far past the two-node testbed — hundreds of beaconing radios spread
// across the whole 802.11b band on a warehouse-sized floor, with unicast
// probe replies riding on every few beacons heard.
//
// The scenario doubles as the regression workload for the indexed radio
// medium: a broadcast beacon ending puts many receivers' follow-on
// replies (and their MAC backoff draws from the kernel generator) in
// whatever order receipts fire, which is exactly the shape that exposes
// any nondeterministic iteration on the PHY hot path. The determinism
// suite running this scenario twice per seed guards the medium's
// ordering contract.

package scenarios

import (
	"encoding/binary"
	"fmt"

	"aroma/internal/netsim"
	"aroma/pkg/aroma"
	"aroma/pkg/aroma/scenario"
)

func init() {
	scenario.Register("densitysweep",
		"hundreds of beaconing radios across the band: PHY density stress at scale",
		buildDensitySweep)
}

func buildDensitySweep(cfg scenario.Config) (*scenario.Built, error) {
	// Sweepable axes (classic values when unset): radios, side (m),
	// beacon (ms).
	var (
		devices  = cfg.ParamIntOr("radios", 300)
		sideM    = cfg.ParamFloatOr("side", 600.0)
		beaconMS = cfg.ParamIntOr("beacon", 400)
	)
	const (
		groupBeacons netsim.Group = 7
		portBeacon   netsim.Port  = 1040
		portProbe    netsim.Port  = 1041
	)
	w := aroma.NewWorld(
		aroma.WithName("density-sweep"),
		aroma.WithSeed(cfg.SeedOr(1)),
		aroma.WithArena(sideM, sideM),
		// The spatial cutoff is what makes this density simulable: radios
		// that cannot possibly hear a frame are skipped entirely.
		aroma.WithRadioCutoff(-100),
		aroma.WithTraceMin(aroma.Issue),
	)

	rng := w.Kernel().Rand()
	var probesHeard uint64
	nodes := make([]*netsim.Node, devices)
	for i := range nodes {
		pos := aroma.Pt(rng.Float64()*sideM, rng.Float64()*sideM)
		dev := w.AddDevice(fmt.Sprintf("beacon-%03d", i), pos,
			aroma.WithChannel(1+i%11))
		nd := dev.Node()
		nd.Join(groupBeacons)
		heard := 0
		nd.Handle(portBeacon, func(src netsim.Addr, data []byte) {
			heard++
			// Every few beacons, probe the beaconer back over unicast —
			// the discovery-reply pattern that makes receipt order feed
			// into MAC contention.
			if heard%5 == 0 {
				nd.SendDatagram(src, portProbe, data)
			}
		})
		nd.Handle(portProbe, func(netsim.Addr, []byte) { probesHeard++ })
		nodes[i] = nd
	}

	// Every device beacons a short multicast frame on a common period,
	// phase-staggered by the seeded generator so contention varies by
	// neighbourhood rather than happening in lockstep.
	for i := range nodes {
		nd := nodes[i]
		payload := binary.BigEndian.AppendUint32(nil, uint32(i))
		phase := aroma.Time(rng.Intn(beaconMS)) * aroma.Millisecond
		w.Schedule(phase, "density.beaconStart", func() {
			send := func() { nd.SendMulticast(groupBeacons, portBeacon, payload) }
			send()
			w.Ticker(aroma.Time(beaconMS)*aroma.Millisecond, "density.beacon", send)
		})
	}

	finish := func(res *scenario.Result) {
		med := w.Medium()
		cfg.Printf("density sweep: %d radios on %d channels over %.0fx%.0f m\n",
			med.Radios(), 11, sideM, sideM)
		cfg.Printf("medium: %d frames sent, %d receipts delivered, %d lost to SINR\n",
			med.Sent, med.Delivered, med.Lost)
		cfg.Printf("probes heard: %d; %d kernel events in %s\n",
			probesHeard, w.Kernel().Steps(), w.Now())
		if cfg.Verbose {
			lossPct := 0.0
			if med.Delivered+med.Lost > 0 {
				lossPct = 100 * float64(med.Lost) / float64(med.Delivered+med.Lost)
			}
			cfg.Printf("receipt loss rate: %.1f%% (congestion collapse is the paper's C2 shape)\n", lossPct)
		}
		res.Metric("sent", float64(med.Sent))
		res.Metric("delivered", float64(med.Delivered))
		res.Metric("lost", float64(med.Lost))
		res.Metric("probes", float64(probesHeard))
	}
	return &scenario.Built{World: w, Horizon: cfg.HorizonOr(aroma.Second), Finish: finish}, nil
}

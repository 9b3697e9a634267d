package aroma

import (
	"fmt"

	"aroma/internal/fault"
	"aroma/internal/sim"
	"aroma/internal/trace"
)

// faultSeedSalt derives the dedicated fault RNG stream's seed from the
// world seed. Any fixed odd constant works; what matters is that the
// fault stream is (a) fully determined by the world seed and (b) not
// the kernel stream, so armed-but-identical worlds consume the kernel
// RNG identically whether or not faults ever fire.
const faultSeedSalt = 0x5eedFA17

// ApplyFaults arms the plan on the world: every occurrence becomes a
// pending kernel event, victims are picked from the dedicated
// seed-derived fault RNG stream, and each window opening/closing emits
// a trace record (so faults enter the digest like any other cause).
// Apply once, before running: on a world that has run (any step taken
// or any virtual time elapsed) it returns an error and arms nothing, so
// a plan always starts at t=0 and its instruments register before the
// telemetry sampler's first sample. An empty plan is a no-op. Window
// recoveries are themselves ordinary scheduled events, so a snapshot
// taken mid-window carries the pending recovery like any other future.
func (w *World) ApplyFaults(plan fault.Plan) error {
	if plan.Empty() {
		return nil
	}
	if w.faults != nil {
		return fmt.Errorf("aroma: world %s already has a fault plan armed", w.opts.name)
	}
	if w.kernel.Steps() > 0 || w.kernel.Now() > 0 {
		return fmt.Errorf("aroma: world %s has already run to %v; arm a fault plan before running", w.opts.name, w.kernel.Now())
	}
	if err := plan.Validate(); err != nil {
		return err
	}
	inj := fault.NewInjector(w.kernel, plan, w.kernel.Seed()^faultSeedSalt)
	w.faults = inj
	for _, s := range plan.Specs {
		if s.Kind == fault.Partition {
			b := w.plan.Bounds
			w.medium.SetPartitionFence((b.Min.X + b.Max.X) / 2)
			break
		}
	}
	inj.Arm(fault.Hooks{
		Crash:     func(target string, downFor sim.Time) { w.faultDeviceDown(target, downFor, true) },
		RadioDown: func(target string, downFor sim.Time) { w.faultDeviceDown(target, downFor, false) },
		Jam:       w.faultJam,
		Partition: w.faultPartition,
		Outage:    w.faultOutage,
	})
	if w.tel != nil {
		w.registerFaultInstruments(w.tel)
	}
	return nil
}

// HasFaults reports whether a fault plan is armed on the world.
func (w *World) HasFaults() bool { return w.faults != nil }

// FaultPlan returns the armed plan's canonical string ("" when none).
func (w *World) FaultPlan() string {
	if w.faults == nil {
		return ""
	}
	return w.faults.Plan().String()
}

// faultVictim resolves a crash/radio fault's victim: the named device,
// or a fault-stream pick among online devices not already down. The
// pick draws from the fault RNG even when only one candidate exists,
// keeping the stream's draw count schedule-determined.
func (w *World) faultVictim(target string) *Device {
	if target != "" {
		d := w.byName[target]
		if d == nil || d.radio == nil {
			w.log.Issue(trace.Resource, "fault", "no online device %q to fail", target)
			return nil
		}
		return d
	}
	var cands []*Device // creation order: deterministic
	for _, d := range w.devices {
		if d.radio != nil && !w.medium.Down(d.radio) {
			cands = append(cands, d)
		}
	}
	if len(cands) == 0 {
		w.log.Issue(trace.Resource, "fault", "no eligible device to fail")
		return nil
	}
	return cands[w.faults.Intn(len(cands))]
}

// faultDeviceDown opens a crash or radio-down window on a device: the
// radio is held down for the window (transmissions error, deliveries
// skip it — leases it held expire server-side unrenewed), and on a
// crash the restart additionally wipes the device's discovery memory,
// so it must re-hear an announcement before it can talk to the lookup
// again. The recovery is a scheduled kernel event.
func (w *World) faultDeviceDown(target string, downFor sim.Time, crash bool) {
	kind := "radio-down"
	if crash {
		kind = "crash"
	}
	d := w.faultVictim(target)
	if d == nil {
		return
	}
	w.medium.SetDown(d.radio, +1)
	w.log.Issue(trace.Resource, d.Name(), "fault: %s for %v", kind, downFor)
	w.Schedule(downFor, "fault."+kind+"End", func() {
		w.medium.SetDown(d.radio, -1)
		if crash && d.agent != nil {
			d.agent.Forget()
		}
		w.log.Info(trace.Resource, d.Name(), "fault: restarted after %s", kind)
	})
}

// faultJam opens an attenuation-burst window: lossDB of extra path loss
// on every link for dur.
func (w *World) faultJam(lossDB float64, dur sim.Time) {
	w.medium.AddJamDB(lossDB)
	w.log.Issue(trace.Physical, "fault", "jam: +%.1f dB path loss for %v", lossDB, dur)
	w.Schedule(dur, "fault.jamEnd", func() {
		w.medium.AddJamDB(-lossDB)
		w.log.Info(trace.Physical, "fault", "jam lifted (-%.1f dB)", lossDB)
	})
}

// faultPartition opens a region-partition window: links crossing the
// arena's midline fence are suppressed for dur.
func (w *World) faultPartition(dur sim.Time) {
	w.medium.AddPartition(+1)
	w.log.Issue(trace.Physical, "fault", "partition: arena split for %v", dur)
	w.Schedule(dur, "fault.partitionEnd", func() {
		w.medium.AddPartition(-1)
		w.log.Info(trace.Physical, "fault", "partition healed")
	})
}

// faultOutage opens a lookup-server outage window: the server stops
// serving (clients time out) and announcing for dur; its lease clock
// keeps running, so registrations shed organically during long outages.
func (w *World) faultOutage(target string, dur sim.Time) {
	var lk *Lookup
	if target != "" {
		for _, c := range w.lookups {
			if c.Host.Name() == target {
				lk = c
				break
			}
		}
		if lk == nil {
			w.log.Issue(trace.Resource, "fault", "no lookup hosted on %q to take down", target)
			return
		}
	} else {
		if len(w.lookups) == 0 {
			w.log.Issue(trace.Resource, "fault", "no lookup service to take down")
			return
		}
		lk = w.lookups[w.faults.Intn(len(w.lookups))]
	}
	lk.FaultDown(+1)
	w.log.Issue(trace.Resource, lk.Host.Name(), "fault: lookup outage for %v", dur)
	w.Schedule(dur, "fault.outageEnd", func() {
		lk.FaultDown(-1)
		w.log.Info(trace.Resource, lk.Host.Name(), "fault: lookup back up")
	})
}

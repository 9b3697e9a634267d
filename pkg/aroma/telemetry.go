package aroma

import (
	"aroma/internal/sim"
	"aroma/internal/telemetry"
	"aroma/internal/trace"
)

// DefaultTelemetryPeriod is the sim-time sampling period used when
// EnableTelemetry is given a non-positive period.
const DefaultTelemetryPeriod = 100 * sim.Millisecond

// EnableTelemetry attaches a per-world instrument registry and starts
// the kernel-driven sampler that turns the sim-plane instruments into
// deterministic sim-time series. period <= 0 selects
// DefaultTelemetryPeriod. Calling it again is a no-op that returns the
// existing registry.
//
// Telemetry is a pure observer: the sampler runs outside the event
// queue and the instruments read counters the model already keeps, so
// digests, ExportState, and provenance are bit-identical with telemetry
// enabled or disabled.
func (w *World) EnableTelemetry(period sim.Time) *telemetry.Registry {
	if w.tel != nil {
		return w.tel
	}
	if period <= 0 {
		period = DefaultTelemetryPeriod
	}
	reg := telemetry.New()
	w.registerInstruments(reg)
	w.tel = reg
	w.telStop = w.kernel.AddSampler(period, func(at sim.Time) {
		reg.Sample(int64(at))
	})
	return reg
}

// Telemetry returns the world's instrument registry, or nil when
// EnableTelemetry was never called.
func (w *World) Telemetry() *telemetry.Registry { return w.tel }

// registerInstruments wires the full instrument inventory over the
// world's layers. Func instruments read stat fields the layers already
// maintain, so enabling telemetry adds no work to any hot path; the
// only handle-updated instruments are the per-severity trace counters,
// which the bus bumps with a dense-slot atomic add.
func (w *World) registerInstruments(reg *telemetry.Registry) {
	k := w.kernel

	// Kernel: event loop and pool health.
	reg.CounterFunc("kernel.steps_total", k.Steps)
	reg.CounterFunc("kernel.events_scheduled_total", k.Seq)
	reg.CounterFunc("kernel.events_cancelled_total", k.Cancels)
	reg.GaugeFunc("kernel.pending", func() float64 { return float64(k.Pending()) })
	reg.GaugeFunc("kernel.pool_slots", func() float64 {
		slots, _ := k.PoolStats()
		return float64(slots)
	})
	reg.GaugeFunc("kernel.pool_free", func() float64 {
		_, free := k.PoolStats()
		return float64(free)
	})

	// Radio medium: traffic, outcome classification, cache effectiveness.
	m := w.medium
	reg.CounterFunc("radio.frames_sent_total", func() uint64 { return m.Sent })
	reg.CounterFunc("radio.frames_delivered_total", func() uint64 { return m.Delivered })
	reg.CounterFunc("radio.frames_lost_total", func() uint64 { return m.Lost })
	reg.CounterFunc("radio.collisions_total", func() uint64 { return m.Collisions })
	reg.CounterFunc("radio.capture_wins_total", func() uint64 { return m.CaptureWins })
	reg.CounterFunc("radio.gain_cache_hits_total", func() uint64 { return m.GainHits })
	reg.CounterFunc("radio.gain_cache_misses_total", func() uint64 { return m.GainMisses })
	reg.GaugeFunc("radio.active_transmissions", func() float64 {
		return float64(m.ActiveTransmissions())
	})
	reg.GaugeFunc("radio.radios", func() float64 { return float64(m.Radios()) })

	// MAC: contention and reliability aggregates.
	mc := w.mac
	reg.CounterFunc("mac.backoffs_total", func() uint64 { return mc.Backoffs })
	reg.CounterFunc("mac.retries_total", func() uint64 { return mc.Retries })
	reg.CounterFunc("mac.ack_timeouts_total", func() uint64 { return mc.AckTimeouts })
	reg.CounterFunc("mac.drops_total", func() uint64 { return mc.Drops })
	reg.CounterFunc("mac.frames_sent_total", func() uint64 { return mc.SentData })
	reg.CounterFunc("mac.acks_sent_total", func() uint64 { return mc.SentAcks })
	reg.CounterFunc("mac.delivered_up_total", func() uint64 { return mc.DeliveredUp })

	// Network: datagram and call accounting.
	n := w.net
	reg.CounterFunc("net.datagrams_sent_total", func() uint64 { return n.DatagramsSent })
	reg.CounterFunc("net.calls_started_total", func() uint64 { return n.CallsStarted })
	reg.CounterFunc("net.calls_completed_total", func() uint64 { return n.CallsCompleted })
	reg.CounterFunc("net.calls_timed_out_total", func() uint64 { return n.CallsTimedOut })

	// Discovery and leasing: summed across the world's lookup services
	// and device agents at sample time (lookups and agents appear as
	// the scenario builds, so the closures walk the live lists).
	reg.CounterFunc("discovery.registrations_total", func() uint64 {
		var t uint64
		for _, lk := range w.lookups {
			t += lk.Registrations
		}
		return t
	})
	reg.CounterFunc("discovery.expirations_total", func() uint64 {
		var t uint64
		for _, lk := range w.lookups {
			t += lk.Expirations
		}
		return t
	})
	reg.CounterFunc("discovery.cancellations_total", func() uint64 {
		var t uint64
		for _, lk := range w.lookups {
			t += lk.Cancellations
		}
		return t
	})
	reg.CounterFunc("discovery.lookups_served_total", func() uint64 {
		var t uint64
		for _, lk := range w.lookups {
			t += lk.LookupsServed
		}
		return t
	})
	reg.CounterFunc("discovery.events_delivered_total", func() uint64 {
		var t uint64
		for _, lk := range w.lookups {
			t += lk.EventsDelivered
		}
		return t
	})
	reg.CounterFunc("discovery.announcements_heard_total", func() uint64 {
		var t uint64
		for _, d := range w.devices {
			if d.agent != nil {
				t += d.agent.AnnouncementsHeard
			}
		}
		return t
	})
	reg.GaugeFunc("discovery.registrations", func() float64 {
		var t int
		for _, lk := range w.lookups {
			t += lk.Count()
		}
		return float64(t)
	})
	reg.CounterFunc("lease.granted_total", func() uint64 {
		var t uint64
		for _, lk := range w.lookups {
			t += lk.Leases().Granted
		}
		return t
	})
	reg.CounterFunc("lease.renewed_total", func() uint64 {
		var t uint64
		for _, lk := range w.lookups {
			t += lk.Leases().Renewed
		}
		return t
	})
	reg.CounterFunc("lease.expired_total", func() uint64 {
		var t uint64
		for _, lk := range w.lookups {
			t += lk.Leases().Expired
		}
		return t
	})
	reg.CounterFunc("lease.released_total", func() uint64 {
		var t uint64
		for _, lk := range w.lookups {
			t += lk.Leases().Released
		}
		return t
	})

	// Fault plane, only when a plan is armed: fault-free worlds keep the
	// exact pre-fault instrument inventory (and metric surfaces).
	if w.faults != nil {
		w.registerFaultInstruments(reg)
	}

	// Trace: per-severity event counters, bumped by the bus on every
	// published record (handle update — dense slot, no allocation).
	sevCounters := make([]telemetry.Counter, int(trace.Violation)+1)
	for sev := trace.Debug; sev <= trace.Violation; sev++ {
		sevCounters[int(sev)] = reg.Counter("trace.events_total",
			telemetry.L("severity", sevLabel(sev)))
	}
	w.bus.bindCounters(sevCounters)
	reg.CounterFunc("trace.deliveries_total", func() uint64 { return w.bus.Deliveries })
}

// registerFaultInstruments wires the fault plane's instruments:
// per-kind injection counters, the fault RNG draw count, and gauges for
// the currently open failure windows. Registered only for worlds with
// an armed plan, from whichever of EnableTelemetry/ApplyFaults runs
// second.
func (w *World) registerFaultInstruments(reg *telemetry.Registry) {
	inj := w.faults
	m := w.medium
	kind := func(name string, fn func() uint64) {
		reg.CounterFunc("fault.injected_total", fn, telemetry.L("kind", name))
	}
	kind("crash", func() uint64 { c, _, _, _, _ := inj.Counts(); return c })
	kind("radio", func() uint64 { _, c, _, _, _ := inj.Counts(); return c })
	kind("jam", func() uint64 { _, _, c, _, _ := inj.Counts(); return c })
	kind("partition", func() uint64 { _, _, _, c, _ := inj.Counts(); return c })
	kind("outage", func() uint64 { _, _, _, _, c := inj.Counts(); return c })
	reg.CounterFunc("fault.rng_draws_total", inj.Draws)
	reg.GaugeFunc("fault.radios_down", func() float64 { return float64(m.DownRadios()) })
	reg.GaugeFunc("fault.jam_db", m.JamDB)
	reg.GaugeFunc("fault.partition_open", func() float64 {
		if m.Partitioned() {
			return 1
		}
		return 0
	})
	reg.GaugeFunc("fault.lookups_down", func() float64 {
		var t int
		for _, lk := range w.lookups {
			if lk.FaultedDown() {
				t++
			}
		}
		return float64(t)
	})
}

// sevLabel is the lower-case Prometheus label value for a severity.
func sevLabel(s trace.Severity) string {
	switch s {
	case trace.Debug:
		return "debug"
	case trace.Info:
		return "info"
	case trace.Issue:
		return "issue"
	case trace.Violation:
		return "violation"
	default:
		return "unknown"
	}
}

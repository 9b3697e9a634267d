// Package telpkg stands in for the telemetry package's host plane:
// wall-clock timers (request and scrape latencies) are its business,
// so the package is allowlisted and nothing here may be flagged. The allowlist names the package — sim
// code that updates instruments gains no clock access from it (see
// simpkg.observeFrame).
package telpkg

import (
	"sync/atomic"
	"time"
)

// Stopwatch accumulates wall-clock durations behind atomics, the way a
// host-plane instrument would.
type Stopwatch struct {
	totalNS atomic.Int64
	ops     atomic.Int64
}

func (t *Stopwatch) Observe(d time.Duration) {
	t.totalNS.Add(int64(d))
	t.ops.Add(1)
}

// Time measures fn and records the elapsed host time.
func (t *Stopwatch) Time(fn func()) {
	t0 := time.Now()
	fn()
	t.Observe(time.Since(t0))
}

package aroma

import (
	"aroma/internal/geo"
	"aroma/internal/mobility"
)

// Mobile worlds: devices move through Device.SetPos, which drives
// Radio.SetPos so the medium's spatial index and cell-granular candidate
// caches stay consistent (see the invalidation model in the package
// doc). MoveAlong and Wander start a mover right after AddDevice or
// later, from a scheduled event.

// MoveAlong starts a mover walking the device along path, sampling
// every mobility.WalkTick (500 ms), and returns it.
func (d *Device) MoveAlong(path geo.Path) *mobility.Mover {
	return mobility.Start(d.world.kernel, path, mobility.WalkTick, d.SetPos)
}

// Wander starts continuous random-waypoint motion from the device's
// current position inside the world's floor-plan bounds at speedMPS:
// walk to a uniformly random point, pick another, forever, sampling
// every mobility.WanderTick (200 ms). A speed that is not positive and
// finite leaves the device parked (see mobility.StartWander). The
// returned wanderer also becomes Device.Wanderer.
func (d *Device) Wander(speedMPS float64) *mobility.Wanderer {
	w := d.world
	d.wanderer = mobility.StartWander(w.kernel, d.Pos(), w.plan.Bounds, speedMPS, d.SetPos)
	return d.wanderer
}

// Wanderer returns the device's random-waypoint wanderer (from Wander),
// or nil if none was started.
func (d *Device) Wanderer() *mobility.Wanderer { return d.wanderer }

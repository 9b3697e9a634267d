package radio

import "errors"

// Fault-plane surface: the medium-side mechanisms the deterministic
// fault injector (internal/fault, wired by pkg/aroma) drives. All of it
// is ordinary kernel-event state — fault windows open and close inside
// scheduled events — and all of it flows through the one linkGain path,
// so RSSI, SINR and carrier sense see a fault window coherently.

// PartitionLossDB is the extra path loss applied to links crossing the
// partition fence while a partition window is open. It is large but
// finite — effectively severing every realistic link budget without
// introducing -Inf into downstream dB arithmetic.
const PartitionLossDB = 300

// ErrRadioDown is returned by Transmit while the sending radio is held
// down by a fault window.
var ErrRadioDown = errors.New("radio: radio is down (fault window)")

// SetDown adjusts a radio's down depth by delta. Overlapping fault
// windows nest: the radio is down while the depth is positive, and a
// window closing never revives a radio another window still holds down.
// While down the radio cannot transmit (Transmit errors) and receives
// nothing (delivery skips it); in-flight transmissions it already
// started complete normally, mirroring a power cut after the frame left
// the antenna.
func (m *Medium) SetDown(r *Radio, delta int) {
	was := r.down > 0
	r.down += delta
	if r.down < 0 {
		r.down = 0
	}
	if is := r.down > 0; is != was {
		if is {
			m.downRadios++
		} else {
			m.downRadios--
		}
	}
}

// Down reports whether the radio is currently held down by a fault.
func (m *Medium) Down(r *Radio) bool { return r.down > 0 }

// DownRadios returns how many attached radios are currently down.
func (m *Medium) DownRadios() int { return m.downRadios }

// AddJamDB adds db of extra path loss to every link (negative db closes
// a jam window by subtracting what it added; concurrent windows stack
// additively). The loss applies inside linkGain, so RSSI, SINR, energy
// sums, and carrier sense all see it coherently; the memoized pairwise
// gains are invalidated wholesale, exactly twice per window.
func (m *Medium) AddJamDB(db float64) {
	m.jamDB += db
	m.invalidateLinkGains()
}

// JamDB returns the currently applied extra path loss.
func (m *Medium) JamDB() float64 { return m.jamDB }

// SetPartitionFence places the partition fence at x (arena
// coordinates). Called once when a fault plan with partition specs is
// applied; the fence position is inert until a partition window opens.
func (m *Medium) SetPartitionFence(x float64) { m.fenceX = x }

// AddPartition adjusts the partition depth by delta. While the depth is
// positive, links crossing the fence carry PartitionLossDB of extra
// loss — two islands that cannot hear each other.
func (m *Medium) AddPartition(delta int) {
	m.partitions += delta
	if m.partitions < 0 {
		m.partitions = 0
	}
	m.invalidateLinkGains()
}

// Partitioned reports whether a partition window is open.
func (m *Medium) Partitioned() bool { return m.partitions > 0 }

// faultLossDB returns the extra path loss a fault window currently
// imposes on the src→rx link. Zero when no window is open — the common
// case, reached only on link-gain memo misses.
func (m *Medium) faultLossDB(src, rx *Radio) float64 {
	loss := m.jamDB
	if m.partitions > 0 && (src.Pos.X < m.fenceX) != (rx.Pos.X < m.fenceX) {
		loss += PartitionLossDB
	}
	return loss
}

// invalidateLinkGains marks every memoized link gain stale by stamping
// the new geoGen on every radio's linkGen; the geoGen bump also drops
// every hearer row and every carrier-sense memo. O(radios), paid only
// when a jam or partition window opens or closes; candidate sets are
// untouched (they are cell-conservative supersets — membership never
// depends on fault loss, only the exact gains do).
func (m *Medium) invalidateLinkGains() {
	m.geoGen++
	for _, r := range m.ordered {
		r.linkGen = m.geoGen
	}
}

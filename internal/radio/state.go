package radio

import (
	"aroma/internal/geo"
	"aroma/internal/sim"
)

// RadioState is one attached radio in canonical export form. Derived
// caches (candidate sets, link gains, generations) are deliberately
// absent: they are rebuilt lazily and never affect physics.
type RadioState struct {
	ID             int       `json:"id"`
	Name           string    `json:"name"`
	Channel        int       `json:"channel"`
	TxPowerDBm     float64   `json:"tx_power_dbm"`
	CSThresholdDBm float64   `json:"cs_threshold_dbm"` // always the package's CSThresholdDBm
	Pos            geo.Point `json:"pos"`
	// Down is the fault-window depth; omitted (zero) outside faults so
	// fault-free exports stay byte-identical to pre-fault builds.
	Down int `json:"down,omitempty"`
}

// TxState is one in-flight transmission in canonical export form. The
// txEnd timer that finishes it appears in the kernel's pending-event
// export.
type TxState struct {
	Seq      uint64   `json:"seq"`
	Src      int      `json:"src"`
	Bits     int      `json:"bits"`
	RateMbps float64  `json:"rate_mbps"`
	Start    sim.Time `json:"start"`
	End      sim.Time `json:"end"`
}

// State is the medium's exportable state: the ID and transmission
// counters, the frame stats, every attached radio in ascending ID
// order, and every in-flight transmission in ascending Seq order.
type State struct {
	NextID    int          `json:"next_id"`
	Seq       uint64       `json:"seq"`
	Sent      uint64       `json:"sent"`
	Delivered uint64       `json:"delivered"`
	Lost      uint64       `json:"lost"`
	Radios    []RadioState `json:"radios,omitempty"`
	Active    []TxState    `json:"active,omitempty"`
	// Fault-plane fields, all zero (and omitted) in a fault-free world.
	JamDB      float64 `json:"jam_db,omitempty"`
	Partitions int     `json:"partitions,omitempty"`
	FenceX     float64 `json:"fence_x,omitempty"`
}

// ExportState captures the medium's current state in canonical form.
// m.ordered and m.active are already in ascending ID and Seq order.
func (m *Medium) ExportState() State {
	st := State{
		NextID:    m.nextID,
		Seq:       m.seq,
		Sent:      m.Sent,
		Delivered: m.Delivered,
		Lost:      m.Lost,
	}
	st.JamDB = m.jamDB
	st.Partitions = m.partitions
	st.FenceX = m.fenceX
	for _, r := range m.ordered {
		st.Radios = append(st.Radios, RadioState{
			ID: r.ID, Name: r.Name, Channel: r.Channel,
			TxPowerDBm: r.txPowerDBm, CSThresholdDBm: CSThresholdDBm, Pos: r.Pos,
			Down: r.down,
		})
	}
	for _, tx := range m.active {
		st.Active = append(st.Active, TxState{
			Seq: tx.Seq, Src: tx.Src.ID, Bits: tx.Bits, RateMbps: tx.Rate.Mbps,
			Start: tx.Start, End: tx.End,
		})
	}
	return st
}

package mac

import "sort"

// SeqState is one receiver-side duplicate-detection entry: the highest
// data-frame sequence delivered from one source.
type SeqState struct {
	Src Addr   `json:"src"`
	Seq uint64 `json:"seq"`
}

// StationState is one station's exportable state. Queued jobs are
// exported as a count: their frames and contention state are mid-flight
// model details whose timers appear in the kernel's pending-event
// export, and whose payloads are model objects.
type StationState struct {
	Addr         Addr       `json:"addr"`
	Queued       int        `json:"queued"`
	InFlight     bool       `json:"in_flight"`
	LastSeq      []SeqState `json:"last_seq,omitempty"`
	SentData     uint64     `json:"sent_data"`
	SentAcks     uint64     `json:"sent_acks"`
	DeliveredUp  uint64     `json:"delivered_up"`
	Drops        uint64     `json:"drops"`
	RetriesTotal uint64     `json:"retries_total"`
}

// State is the MAC layer's exportable state: the address and sequence
// counters plus every station in ascending address order.
type State struct {
	NextAddr Addr           `json:"next_addr"`
	Seq      uint64         `json:"seq"`
	Stations []StationState `json:"stations,omitempty"`
}

// ExportState captures the MAC layer's current state in canonical form.
func (m *MAC) ExportState() State {
	st := State{NextAddr: m.nextAddr, Seq: m.seq}
	//aroma:ordered export rows are sorted by Addr immediately after the loop
	for _, s := range m.stations {
		ss := StationState{
			Addr:         s.addr,
			Queued:       s.queued(),
			InFlight:     s.current != nil,
			SentData:     s.SentData,
			SentAcks:     s.SentAcks,
			DeliveredUp:  s.DeliveredUp,
			Drops:        s.Drops,
			RetriesTotal: s.RetriesTotal,
		}
		//aroma:ordered export rows are sorted by Src immediately after the loop
		for src, seq := range s.lastSeq {
			ss.LastSeq = append(ss.LastSeq, SeqState{Src: src, Seq: seq})
		}
		sort.Slice(ss.LastSeq, func(i, j int) bool { return ss.LastSeq[i].Src < ss.LastSeq[j].Src })
		st.Stations = append(st.Stations, ss)
	}
	sort.Slice(st.Stations, func(i, j int) bool { return st.Stations[i].Addr < st.Stations[j].Addr })
	return st
}

package netsim

import "sort"

// ReasmState is one in-progress fragment reassembly in export form.
type ReasmState struct {
	Src   Addr   `json:"src"`
	MsgID uint64 `json:"msg_id"`
	Have  int    `json:"have"`
	Total int    `json:"total"`
}

// NodeState is one node's exportable state. Pending calls are exported
// by message ID only: their completion closures live in the model, and
// their timeout timers in the kernel's pending-event export.
type NodeState struct {
	Addr         Addr         `json:"addr"`
	Name         string       `json:"name"`
	MTU          int          `json:"mtu"`
	Groups       []Group      `json:"groups,omitempty"`
	PendingCalls []uint64     `json:"pending_calls,omitempty"`
	Reassemblies []ReasmState `json:"reassemblies,omitempty"`
}

// State is the network's exportable state: the message-ID counter, the
// lifetime stats, and every node in ascending address order.
type State struct {
	MsgSeq         uint64      `json:"msg_seq"`
	DatagramsSent  uint64      `json:"datagrams_sent"`
	CallsStarted   uint64      `json:"calls_started"`
	CallsCompleted uint64      `json:"calls_completed"`
	CallsTimedOut  uint64      `json:"calls_timed_out"`
	Nodes          []NodeState `json:"nodes,omitempty"`
}

// ExportState captures the network's current state in canonical form.
func (n *Network) ExportState() State {
	st := State{
		MsgSeq:         n.msgSeq,
		DatagramsSent:  n.DatagramsSent,
		CallsStarted:   n.CallsStarted,
		CallsCompleted: n.CallsCompleted,
		CallsTimedOut:  n.CallsTimedOut,
	}
	//aroma:ordered export rows are sorted by Addr immediately after the loop
	for _, nd := range n.nodes {
		ns := NodeState{Addr: nd.Addr(), Name: nd.name, MTU: nd.MTU}
		//aroma:ordered export rows are sorted by group immediately after the loop
		for g := range nd.groups {
			ns.Groups = append(ns.Groups, g)
		}
		sort.Slice(ns.Groups, func(i, j int) bool { return ns.Groups[i] < ns.Groups[j] })
		//aroma:ordered export rows are sorted by call ID immediately after the loop
		for id := range nd.pending {
			ns.PendingCalls = append(ns.PendingCalls, id)
		}
		sort.Slice(ns.PendingCalls, func(i, j int) bool { return ns.PendingCalls[i] < ns.PendingCalls[j] })
		//aroma:ordered export rows are sorted by Src immediately after the loop
		for src, rs := range nd.reassembly {
			ns.Reassemblies = append(ns.Reassemblies, ReasmState{
				Src: src, MsgID: rs.msgID, Have: rs.have, Total: rs.total,
			})
		}
		sort.Slice(ns.Reassemblies, func(i, j int) bool { return ns.Reassemblies[i].Src < ns.Reassemblies[j].Src })
		st.Nodes = append(st.Nodes, ns)
	}
	sort.Slice(st.Nodes, func(i, j int) bool { return st.Nodes[i].Addr < st.Nodes[j].Addr })
	return st
}

// Package netsim provides the packet networking substrate that the Aroma
// services run over: node addressing on top of the MAC layer, port-based
// demultiplexing, datagram fragmentation and reassembly, multicast groups
// (the transport for Jini-style discovery announcements), and a
// request/response transport with timeouts.
//
// The paper's resource layer requires that "networking features should be
// automatically available [and] self-configuring"; netsim keeps zero
// manual configuration: nodes get addresses when created and multicast
// membership is a single Join call.
//
// Scenario code normally reaches this package through the pkg/aroma
// facade, which wires radios, MAC stations, and nodes in one AddDevice
// call.
package netsim

import (
	"errors"
	"fmt"
	"slices"

	"aroma/internal/mac"
	"aroma/internal/radio"
	"aroma/internal/sim"
)

// Addr identifies a node; it is the node's MAC station address.
type Addr = mac.Addr

// Port demultiplexes services within a node.
type Port uint16

// Group identifies a multicast group.
type Group uint16

// Well-known ports used by the Aroma stack; applications should use ports
// from 1024 up.
const (
	PortDiscovery Port = 1
	PortRFB       Port = 2
	PortControl   Port = 3
	PortEvents    Port = 4
)

// MTU is the maximum payload bytes carried in one link frame: every
// node fragments at it.
const MTU = 1500

// DefaultCallTimeout bounds a Call waiting for its response.
const DefaultCallTimeout = 2 * sim.Second

// kind tags packets on the wire.
type kind uint8

const (
	kindDatagram kind = iota
	kindRequest
	kindResponse
	kindMulticast
)

// packet is the wire unit carried as the MAC frame payload. Every
// fragment of a message carries the whole message in Data; FragIdx and
// FragCnt say which MTU-sized part of it the frame's bits stand for.
// Each fragment's frame carries its own *packet, taken from the sending
// node's free list and returned when that fragment's link result comes
// back (see sendFragmented), so a receiver copies it before anything
// else. It is kept to 64 bytes, one size class.
type packet struct {
	Kind    kind
	Src     Addr
	Dst     Addr
	Group   Group
	Port    Port
	MsgID   uint64
	FragIdx int
	FragCnt int
	Data    []byte
}

// headerBytes approximates the packet header size on the wire.
const headerBytes = 20

// Handler consumes a datagram or multicast delivery. data is the
// sender's own buffer, shared with every other receiver of the message:
// a handler may keep or forward it but must not write to it.
type Handler func(src Addr, data []byte)

// RequestHandler serves a Call: resp is sent back to the caller, and a
// nil resp sends an empty (but successful) response. As for Handler,
// data is the caller's buffer and must not be written.
//
// resp travels by reference, so the handler must not write to it until
// sent runs. A non-nil sent runs exactly once, from the link result of
// the response's last fragment: its ACK, its drop at the retry limit,
// or its refusal by a down radio. A station finishes its frames in FIFO
// order, one at a time, so by then no queued or airborne frame
// references resp, and the caller, which reads a delivery before
// acknowledging it, is done with it; the handler may reuse resp. A
// response still queued when the world ends never runs sent.
type RequestHandler func(src Addr, data []byte) (resp []byte, sent func())

// Network owns the nodes built over one MAC.
type Network struct {
	kernel *sim.Kernel
	nodes  map[Addr]*Node
	msgSeq uint64

	// Stats
	DatagramsSent  uint64
	CallsStarted   uint64
	CallsCompleted uint64
	CallsTimedOut  uint64
}

// New creates a network over the given MAC layer.
func New(m *mac.MAC) *Network {
	return &Network{
		kernel: m.Medium().Kernel(),
		nodes:  make(map[Addr]*Node),
	}
}

// Node is one network endpoint.
type Node struct {
	net     *Network
	station *mac.Station
	name    string

	handlers    map[Port]Handler
	reqHandlers map[Port]RequestHandler
	groups      map[Group]bool

	reassembly map[Addr]*reasmState // by source
	pending    map[uint64]*pendingCall
	unsent     []unsentResponse // responses whose sent has not run

	// Recycled records, so that a warmed message, call or reassembly
	// allocates nothing. They are not model state: which record serves
	// a message changes no event, draw or export.
	packetFree []*packet
	callFree   []*pendingCall
	reasmFree  []*reasmState

	// linkDone is onLinkResult and linkFree is releaseFrame, bound once
	// so that sending a message allocates no closure.
	linkDone func(mac.SendResult)
	linkFree func(mac.SendResult)
}

// reasmState counts the distinct fragments of a message that have
// arrived; seen has one bit per fragment index.
type reasmState struct {
	msgID uint64
	seen  []uint64
	have  int
	total int
}

// unsentResponse is a response whose handler waits to hear that it has
// left the link. Its message ID is the request's, which is unique in
// the network.
type unsentResponse struct {
	msgID uint64
	sent  func()
}

// pendingCall is a Call awaiting its response; it is also the argument
// of its timeout event.
type pendingCall struct {
	node    *Node
	id      uint64
	done    func([]byte, error)
	timeout sim.Event
}

// NewNode creates a node bound to the given MAC station.
func (n *Network) NewNode(name string, st *mac.Station) *Node {
	node := &Node{
		net:         n,
		station:     st,
		name:        name,
		handlers:    make(map[Port]Handler),
		reqHandlers: make(map[Port]RequestHandler),
		groups:      make(map[Group]bool),
		reassembly:  make(map[Addr]*reasmState),
		pending:     make(map[uint64]*pendingCall),
	}
	node.linkDone = node.onLinkResult
	node.linkFree = node.releaseFrame
	n.nodes[st.Addr()] = node
	st.OnReceive = node.onFrame
	return node
}

// Addr returns the node's address.
func (nd *Node) Addr() Addr { return nd.station.Addr() }

// Network returns the network the node belongs to.
func (nd *Node) Network() *Network { return nd.net }

// Kernel returns the simulation kernel the node runs on.
func (nd *Node) Kernel() *sim.Kernel { return nd.net.kernel }

// Handle registers a datagram/multicast handler for a port, replacing any
// previous handler.
func (nd *Node) Handle(p Port, h Handler) { nd.handlers[p] = h }

// HandleRequest registers a request handler for a port.
func (nd *Node) HandleRequest(p Port, h RequestHandler) { nd.reqHandlers[p] = h }

// Join adds the node to a multicast group.
func (nd *Node) Join(g Group) { nd.groups[g] = true }

// ErrTimeout is reported when a Call's response does not arrive in time.
var ErrTimeout = errors.New("netsim: call timed out")

// ErrLinkFailed is reported when the link layer gives up on a fragment.
var ErrLinkFailed = errors.New("netsim: link-layer send failed")

// The link failures for the causes the link layer reports, built once
// so that a failing call allocates no error.
var (
	errLinkRetries = fmt.Errorf("%w: %v", ErrLinkFailed, mac.ErrTooManyRetries)
	errLinkDown    = fmt.Errorf("%w: %v", ErrLinkFailed, radio.ErrRadioDown)
)

// linkError wraps a fragment's link-layer failure in ErrLinkFailed.
func linkError(cause error) error {
	switch cause {
	case mac.ErrTooManyRetries:
		return errLinkRetries
	case radio.ErrRadioDown:
		return errLinkDown
	}
	return fmt.Errorf("%w: %v", ErrLinkFailed, cause)
}

// SendDatagram sends an unreliable datagram (fragmenting if needed).
func (nd *Node) SendDatagram(dst Addr, port Port, data []byte) {
	nd.net.DatagramsSent++
	nd.net.msgSeq++
	nd.sendFragmented(packet{
		Kind: kindDatagram, Src: nd.Addr(), Dst: dst, Port: port,
		MsgID: nd.net.msgSeq, Data: data,
	}, nil)
}

// SendMulticast broadcasts data to every member of group g.
func (nd *Node) SendMulticast(g Group, port Port, data []byte) {
	nd.net.DatagramsSent++
	nd.net.msgSeq++
	nd.sendFragmented(packet{
		Kind: kindMulticast, Src: nd.Addr(), Dst: mac.Broadcast, Group: g, Port: port,
		MsgID: nd.net.msgSeq, Data: data,
	}, nil)
}

// Call sends a request to dst:port and invokes done with the response or
// an error. A non-positive timeout uses DefaultCallTimeout.
func (nd *Node) Call(dst Addr, port Port, req []byte, timeout sim.Time, done func(resp []byte, err error)) {
	if timeout <= 0 {
		timeout = DefaultCallTimeout
	}
	nd.net.CallsStarted++
	nd.net.msgSeq++
	id := nd.net.msgSeq
	var pc *pendingCall
	if n := len(nd.callFree); n > 0 {
		pc = nd.callFree[n-1]
		nd.callFree = nd.callFree[:n-1]
	} else {
		pc = &pendingCall{}
	}
	*pc = pendingCall{node: nd, id: id, done: done}
	pc.timeout = nd.net.kernel.ScheduleFn(timeout, "net.callTimeout", callTimedOut, pc)
	nd.pending[id] = pc
	nd.sendFragmented(packet{
		Kind: kindRequest, Src: nd.Addr(), Dst: dst, Port: port,
		MsgID: id, Data: req,
	}, nd.linkDone)
}

// finishCall removes a Call from pending and recycles its record,
// returning its done. The caller runs done afterwards: done may Call
// again and take this very record.
func (nd *Node) finishCall(pc *pendingCall) func([]byte, error) {
	delete(nd.pending, pc.id)
	done := pc.done
	*pc = pendingCall{}
	nd.callFree = append(nd.callFree, pc)
	return done
}

// releaseFrame recycles a fragment's packet once its link result is
// in. The station reports a frame's result once, after the last
// transmission of it has left the air (mac's finishJob), and every
// receiver copied the packet on delivery, so nothing reads the record
// again.
func (nd *Node) releaseFrame(res mac.SendResult) {
	fp := res.Frame.Payload.(*packet)
	*fp = packet{}
	nd.packetFree = append(nd.packetFree, fp)
}

// onLinkResult receives the link result of every fragment of the
// node's requests, and of its responses whose handler asked for sent.
func (nd *Node) onLinkResult(res mac.SendResult) {
	p := *res.Frame.Payload.(*packet)
	nd.releaseFrame(res)
	switch p.Kind {
	case kindRequest:
		// The link layer gave up on a fragment: fail the call early.
		// Only the first failure finds the call still pending.
		if res.Err == nil {
			return
		}
		pc, ok := nd.pending[p.MsgID]
		if !ok {
			return
		}
		nd.net.kernel.Cancel(pc.timeout)
		nd.net.CallsTimedOut++
		if done := nd.finishCall(pc); done != nil {
			done(nil, linkError(res.Err))
		}
	case kindResponse:
		// The last fragment's result is the message's last.
		if p.FragIdx < p.FragCnt-1 {
			return
		}
		for i, u := range nd.unsent {
			if u.msgID == p.MsgID {
				nd.unsent = slices.Delete(nd.unsent, i, i+1)
				u.sent()
				return
			}
		}
	}
}

// callTimedOut fails a Call whose response did not arrive in time.
func callTimedOut(arg any) {
	pc := arg.(*pendingCall)
	nd := pc.node
	nd.net.CallsTimedOut++
	if done := nd.finishCall(pc); done != nil {
		done(nil, ErrTimeout)
	}
}

// sendFragmented splits a packet into MTU-sized fragments and queues them
// on the MAC. Every fragment carries the whole message; its bits are
// those of its own MTU-sized part. Each fragment's frame carries a
// recycled *packet, which its link result releases: done, if non-nil,
// receives every fragment's link result and releases it itself, and
// otherwise releaseFrame does. The station finishes its frames in FIFO
// order, so the last fragment's result comes last.
func (nd *Node) sendFragmented(p packet, done func(mac.SendResult)) {
	if done == nil {
		done = nd.linkFree
	}
	n := len(p.Data)
	p.FragCnt = max(1, (n+MTU-1)/MTU)
	for i := 0; i < p.FragCnt; i++ {
		var fp *packet
		if k := len(nd.packetFree); k > 0 {
			fp = nd.packetFree[k-1]
			nd.packetFree = nd.packetFree[:k-1]
		} else {
			fp = new(packet)
		}
		*fp = p
		fp.FragIdx = i
		bits := (min(n-i*MTU, MTU) + headerBytes) * 8
		// bits counts the header, so it is never zero, and a zero
		// payload is the only thing Send refuses.
		_ = nd.station.Send(p.Dst, bits, fp, done)
	}
}

// onFrame handles a delivered MAC frame.
func (nd *Node) onFrame(f mac.Frame) {
	fp, ok := f.Payload.(*packet)
	if !ok {
		return
	}
	p := *fp // the sender recycles the record after the delivery
	if p.Kind == kindMulticast && !nd.groups[p.Group] {
		return
	}
	data, complete := nd.reassemble(p)
	if !complete {
		return
	}
	switch p.Kind {
	case kindDatagram, kindMulticast:
		if h := nd.handlers[p.Port]; h != nil {
			h(p.Src, data)
		}
	case kindRequest:
		h := nd.reqHandlers[p.Port]
		if h == nil {
			return // no service on that port: caller times out
		}
		resp, sent := h(p.Src, data)
		var done func(mac.SendResult)
		if sent != nil {
			nd.unsent = append(nd.unsent, unsentResponse{msgID: p.MsgID, sent: sent})
			done = nd.linkDone
		}
		nd.sendFragmented(packet{
			Kind: kindResponse, Src: nd.Addr(), Dst: p.Src, Port: p.Port,
			MsgID: p.MsgID, Data: resp,
		}, done)
	case kindResponse:
		pc, ok := nd.pending[p.MsgID]
		if !ok {
			return // late response after timeout
		}
		nd.net.kernel.Cancel(pc.timeout)
		nd.net.CallsCompleted++
		if done := nd.finishCall(pc); done != nil {
			done(data, nil)
		}
	}
}

// reassemble counts the distinct fragments of a message; once every
// one has arrived it returns the message, which each fragment carries
// whole, and true. Duplicate and out-of-range fragments are ignored.
//
// A node keeps at most one partial message per source. A station sends
// its frames from one FIFO queue, so two messages' fragments never
// interleave at a receiver: a fragment of a new message from a source
// means the previous one lost a fragment and can never complete, and
// it is dropped. States are recycled through the node's free list.
func (nd *Node) reassemble(p packet) ([]byte, bool) {
	if p.FragCnt <= 1 {
		return p.Data, true
	}
	st := nd.reassembly[p.Src]
	if st == nil || st.msgID != p.MsgID {
		if st == nil {
			if n := len(nd.reasmFree); n > 0 {
				st = nd.reasmFree[n-1]
				nd.reasmFree = nd.reasmFree[:n-1]
			} else {
				st = &reasmState{}
			}
			nd.reassembly[p.Src] = st
		}
		words := (p.FragCnt + 63) / 64
		if cap(st.seen) < words {
			st.seen = make([]uint64, words)
		}
		st.seen = st.seen[:words]
		clear(st.seen)
		st.msgID, st.have, st.total = p.MsgID, 0, p.FragCnt
	}
	if p.FragIdx < 0 || p.FragIdx >= st.total {
		return nil, false
	}
	w, bit := &st.seen[p.FragIdx/64], uint64(1)<<(p.FragIdx%64)
	if *w&bit != 0 {
		return nil, false
	}
	*w |= bit
	st.have++
	if st.have < st.total {
		return nil, false
	}
	delete(nd.reassembly, p.Src)
	nd.reasmFree = append(nd.reasmFree, st)
	return p.Data, true
}

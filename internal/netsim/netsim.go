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

// DefaultMTU is the maximum payload bytes carried in one link frame.
const DefaultMTU = 1500

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
// FragCnt say which MTU-sized part of it the frame's bits stand for. The
// struct is boxed into every MAC frame, so it is kept to 64 bytes.
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

	// linkDone is onLinkResult, bound once so that sending a message
	// allocates no closure.
	linkDone func(mac.SendResult)

	// MTU is the fragmentation threshold in payload bytes.
	MTU int
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
		MTU:         DefaultMTU,
	}
	node.linkDone = node.onLinkResult
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
	pc := &pendingCall{node: nd, id: id, done: done}
	pc.timeout = nd.net.kernel.ScheduleFn(timeout, "net.callTimeout", callTimedOut, pc)
	nd.pending[id] = pc
	nd.sendFragmented(packet{
		Kind: kindRequest, Src: nd.Addr(), Dst: dst, Port: port,
		MsgID: id, Data: req,
	}, nd.linkDone)
}

// onLinkResult receives the link result of every fragment of the
// node's requests, and of its responses whose handler asked for sent.
func (nd *Node) onLinkResult(res mac.SendResult) {
	p := res.Frame.Payload.(packet)
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
		delete(nd.pending, p.MsgID)
		nd.net.kernel.Cancel(pc.timeout)
		nd.net.CallsTimedOut++
		if pc.done != nil {
			pc.done(nil, fmt.Errorf("%w: %v", ErrLinkFailed, res.Err))
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
	delete(nd.pending, pc.id)
	nd.net.CallsTimedOut++
	if pc.done != nil {
		pc.done(nil, ErrTimeout)
	}
}

// sendFragmented splits a packet into MTU-sized fragments and queues them
// on the MAC. Every fragment carries the whole message; its bits are
// those of its own MTU-sized part. done, if non-nil, receives every
// fragment's link result. The station finishes its frames in FIFO
// order, so the last fragment's result comes last.
func (nd *Node) sendFragmented(p packet, done func(mac.SendResult)) {
	mtu := nd.MTU
	if mtu <= 0 {
		mtu = DefaultMTU
	}
	n := len(p.Data)
	p.FragCnt = max(1, (n+mtu-1)/mtu)
	for i := 0; i < p.FragCnt; i++ {
		p.FragIdx = i
		bits := (min(n-i*mtu, mtu) + headerBytes) * 8
		// bits counts the header, so it is never zero, and a zero
		// payload is the only thing Send refuses.
		_ = nd.station.Send(p.Dst, bits, p, done)
	}
}

// onFrame handles a delivered MAC frame.
func (nd *Node) onFrame(f mac.Frame) {
	p, ok := f.Payload.(packet)
	if !ok {
		return
	}
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
		delete(nd.pending, p.MsgID)
		nd.net.kernel.Cancel(pc.timeout)
		nd.net.CallsCompleted++
		if pc.done != nil {
			pc.done(data, nil)
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
// it is dropped.
func (nd *Node) reassemble(p packet) ([]byte, bool) {
	if p.FragCnt <= 1 {
		return p.Data, true
	}
	st := nd.reassembly[p.Src]
	if st == nil || st.msgID != p.MsgID {
		st = &reasmState{msgID: p.MsgID, seen: make([]uint64, (p.FragCnt+63)/64), total: p.FragCnt}
		nd.reassembly[p.Src] = st
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
	return p.Data, true
}

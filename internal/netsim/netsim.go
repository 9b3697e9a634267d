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

// packet is the wire unit carried as the MAC frame payload.
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

// Handler consumes a datagram or multicast delivery.
type Handler func(src Addr, data []byte)

// RequestHandler serves a Call; its return value is sent back to the
// caller. Returning nil sends an empty (but successful) response.
type RequestHandler func(src Addr, data []byte) []byte

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

	reassembly map[reasmKey]*reasmState
	pending    map[uint64]*pendingCall

	// MTU is the fragmentation threshold in payload bytes.
	MTU int
}

type reasmKey struct {
	src   Addr
	msgID uint64
}

type reasmState struct {
	frags [][]byte
	have  int
}

type pendingCall struct {
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
		reassembly:  make(map[reasmKey]*reasmState),
		pending:     make(map[uint64]*pendingCall),
		MTU:         DefaultMTU,
	}
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

// Station returns the underlying MAC station.
func (nd *Node) Station() *mac.Station { return nd.station }

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
	pc := &pendingCall{done: done}
	pc.timeout = nd.net.kernel.Schedule(timeout, "net.callTimeout", func() {
		delete(nd.pending, id)
		nd.net.CallsTimedOut++
		if done != nil {
			done(nil, ErrTimeout)
		}
	})
	nd.pending[id] = pc
	nd.sendFragmented(packet{
		Kind: kindRequest, Src: nd.Addr(), Dst: dst, Port: port,
		MsgID: id, Data: req,
	}, func(err error) {
		// Link-layer failure: fail the call early.
		if pcLive, ok := nd.pending[id]; ok && err != nil {
			delete(nd.pending, id)
			nd.net.kernel.Cancel(pcLive.timeout)
			nd.net.CallsTimedOut++
			if done != nil {
				done(nil, fmt.Errorf("%w: %v", ErrLinkFailed, err))
			}
		}
	})
}

// sendFragmented splits a packet into MTU-sized fragments and queues them
// on the MAC. onLinkResult, if non-nil, receives the first link error (or
// nil after the last fragment succeeds).
func (nd *Node) sendFragmented(p packet, onLinkResult func(error)) {
	mtu := nd.MTU
	if mtu <= 0 {
		mtu = DefaultMTU
	}
	data := p.Data
	cnt := (len(data) + mtu - 1) / mtu
	if cnt == 0 {
		cnt = 1
	}
	reported := false
	remaining := cnt
	for i := 0; i < cnt; i++ {
		lo := i * mtu
		hi := lo + mtu
		if hi > len(data) {
			hi = len(data)
		}
		frag := p
		frag.FragIdx = i
		frag.FragCnt = cnt
		frag.Data = data[lo:hi]
		bits := (len(frag.Data) + headerBytes) * 8
		err := nd.station.Send(p.Dst, bits, frag, func(res mac.SendResult) {
			remaining--
			if onLinkResult == nil || reported {
				return
			}
			if res.Err != nil {
				reported = true
				onLinkResult(res.Err)
			} else if remaining == 0 {
				reported = true
				onLinkResult(nil)
			}
		})
		if err != nil && onLinkResult != nil && !reported {
			reported = true
			onLinkResult(err)
		}
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
		resp := h(p.Src, data)
		nd.sendFragmented(packet{
			Kind: kindResponse, Src: nd.Addr(), Dst: p.Src, Port: p.Port,
			MsgID: p.MsgID, Data: resp,
		}, nil)
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

// reassemble accumulates fragments; it returns the full payload and true
// once every fragment of the message has arrived.
func (nd *Node) reassemble(p packet) ([]byte, bool) {
	if p.FragCnt <= 1 {
		return p.Data, true
	}
	key := reasmKey{src: p.Src, msgID: p.MsgID}
	st := nd.reassembly[key]
	if st == nil {
		st = &reasmState{frags: make([][]byte, p.FragCnt)}
		nd.reassembly[key] = st
	}
	if p.FragIdx >= 0 && p.FragIdx < len(st.frags) && st.frags[p.FragIdx] == nil {
		st.frags[p.FragIdx] = p.Data
		st.have++
	}
	if st.have < len(st.frags) {
		return nil, false
	}
	delete(nd.reassembly, key)
	n := 0
	for _, f := range st.frags {
		n += len(f)
	}
	full := make([]byte, 0, n)
	for _, f := range st.frags {
		full = append(full, f...)
	}
	return full, true
}

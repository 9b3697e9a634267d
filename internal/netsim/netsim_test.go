package netsim

import (
	"bytes"
	"errors"
	"slices"
	"testing"
	"unsafe"

	"aroma/internal/env"
	"aroma/internal/geo"
	"aroma/internal/mac"
	"aroma/internal/radio"
	"aroma/internal/sim"
)

// testNet builds n nodes in a row 4 m apart on channel 6.
func testNet(seed int64, n int) (*sim.Kernel, *Network, []*Node) {
	k := sim.New(seed)
	e := env.New(geo.NewFloorPlan(geo.RectAt(0, 0, 500, 100)))
	med := radio.NewMedium(k, e)
	m := mac.New(med)
	nw := New(m)
	nodes := make([]*Node, n)
	for i := range nodes {
		st := m.AddStation(med.NewRadio("r", geo.Pt(float64(4*i), 0), 6, 15))
		nodes[i] = nw.NewNode("node", st)
	}
	return k, nw, nodes
}

func TestDatagramDelivery(t *testing.T) {
	k, _, nodes := testNet(1, 2)
	var got []byte
	var from Addr
	nodes[1].Handle(PortDynamic, func(src Addr, data []byte) { got = data; from = src })
	nodes[0].SendDatagram(nodes[1].Addr(), PortDynamic, []byte("ping"))
	for k.Step() {
	}
	if string(got) != "ping" || from != nodes[0].Addr() {
		t.Fatalf("got %q from %d", got, from)
	}
}

func TestPortDemux(t *testing.T) {
	k, _, nodes := testNet(1, 2)
	a, b := 0, 0
	nodes[1].Handle(PortDynamic, func(Addr, []byte) { a++ })
	nodes[1].Handle(PortDynamic+1, func(Addr, []byte) { b++ })
	nodes[0].SendDatagram(nodes[1].Addr(), PortDynamic, nil)
	nodes[0].SendDatagram(nodes[1].Addr(), PortDynamic+1, nil)
	nodes[0].SendDatagram(nodes[1].Addr(), PortDynamic+1, nil)
	for k.Step() {
	}
	if a != 1 || b != 2 {
		t.Fatalf("a=%d b=%d", a, b)
	}
}

func TestUnhandledPortDropped(t *testing.T) {
	k, _, nodes := testNet(1, 2)
	nodes[0].SendDatagram(nodes[1].Addr(), 999, []byte("x"))
	for k.Step() { // must not panic
	}
}

func TestFragmentationRoundTrip(t *testing.T) {
	k, _, nodes := testNet(2, 2)
	big := make([]byte, 10_000)
	for i := range big {
		big[i] = byte(i * 7)
	}
	var got []byte
	nodes[1].Handle(PortDynamic, func(_ Addr, data []byte) { got = data })
	nodes[0].SendDatagram(nodes[1].Addr(), PortDynamic, big)
	for k.Step() {
	}
	if !bytes.Equal(got, big) {
		t.Fatalf("fragmented payload corrupted: len=%d want %d", len(got), len(big))
	}
}

// A message one byte longer than two MTUs goes out as three fragments,
// the last of one byte, and arrives whole.
func TestFragmentationOneByteTail(t *testing.T) {
	k, _, nodes := testNet(3, 2)
	text := []byte("the quick brown fox jumps over the lazy dog ")
	payload := bytes.Repeat(text, 2*MTU/len(text)+1)[:2*MTU+1]
	frames := 0
	st := nodes[1].station
	deliver := st.OnReceive
	st.OnReceive = func(f mac.Frame) {
		frames++
		deliver(f)
	}
	var got []byte
	nodes[1].Handle(PortDynamic, func(_ Addr, data []byte) { got = data })
	nodes[0].SendDatagram(nodes[1].Addr(), PortDynamic, payload)
	for k.Step() {
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("got %d bytes, want the %d sent", len(got), len(payload))
	}
	if frames != 3 {
		t.Fatalf("%d fragments delivered, want 3", frames)
	}
}

func TestMulticastMembership(t *testing.T) {
	k, _, nodes := testNet(4, 4)
	const g Group = 7
	counts := make([]int, 4)
	for i := 1; i < 4; i++ {
		i := i
		nodes[i].Handle(PortDiscovery, func(Addr, []byte) { counts[i]++ })
	}
	nodes[1].Join(g)
	nodes[2].Join(g)
	// node 3 does not join.
	nodes[0].SendMulticast(g, PortDiscovery, []byte("announce"))
	for k.Step() {
	}
	if counts[1] != 1 || counts[2] != 1 {
		t.Fatalf("members missed multicast: %v", counts)
	}
	if counts[3] != 0 {
		t.Fatalf("non-member received multicast: %v", counts)
	}
	if !nodes[1].Member(g) || nodes[3].Member(g) {
		t.Fatal("membership predicates wrong")
	}
}

func TestCallResponse(t *testing.T) {
	k, nw, nodes := testNet(5, 2)
	nodes[1].HandleRequest(PortControl, func(src Addr, data []byte) ([]byte, func()) {
		return append([]byte("echo:"), data...), nil
	})
	var resp []byte
	var callErr error
	nodes[0].Call(nodes[1].Addr(), PortControl, []byte("hi"), 0, func(r []byte, err error) {
		resp, callErr = r, err
	})
	for k.Step() {
	}
	if callErr != nil {
		t.Fatal(callErr)
	}
	if string(resp) != "echo:hi" {
		t.Fatalf("resp = %q", resp)
	}
	if nw.CallsCompleted != 1 || nw.CallsTimedOut != 0 {
		t.Fatalf("stats: completed=%d timedout=%d", nw.CallsCompleted, nw.CallsTimedOut)
	}
	if nodes[0].PendingCalls() != 0 {
		t.Fatal("pending call leaked")
	}
}

func TestCallTimeoutOnUnservedPort(t *testing.T) {
	k, nw, nodes := testNet(6, 2)
	var callErr error
	nodes[0].Call(nodes[1].Addr(), PortControl, []byte("hi"), sim.Second, func(r []byte, err error) {
		callErr = err
	})
	for k.Step() {
	}
	if !errors.Is(callErr, ErrTimeout) {
		t.Fatalf("err = %v, want timeout", callErr)
	}
	if nw.CallsTimedOut != 1 {
		t.Fatalf("timeouts = %d", nw.CallsTimedOut)
	}
}

func TestCallFailsFastOnDeadLink(t *testing.T) {
	// Peer is far out of radio range: the MAC gives up and the call
	// should fail with a link error well before the (long) timeout.
	k := sim.New(7)
	e := env.New(geo.NewFloorPlan(geo.RectAt(0, 0, 10000, 100)))
	med := radio.NewMedium(k, e)
	m := mac.New(med)
	nw := New(m)
	a := nw.NewNode("a", m.AddStation(med.NewRadio("a", geo.Pt(0, 0), 6, 15)))
	b := nw.NewNode("b", m.AddStation(med.NewRadio("b", geo.Pt(9000, 0), 6, 15)))
	var callErr error
	failedAt := sim.Time(0)
	a.Call(b.Addr(), PortControl, []byte("hi"), sim.Hour, func(r []byte, err error) {
		callErr = err
		failedAt = k.Now()
	})
	for k.Step() {
	}
	if !errors.Is(callErr, ErrLinkFailed) {
		t.Fatalf("err = %v, want link failure", callErr)
	}
	if failedAt >= sim.Hour {
		t.Fatalf("fail-fast took %v", failedAt)
	}
	if nw.CallsTimedOut != 1 {
		t.Fatalf("timeouts = %d", nw.CallsTimedOut)
	}
}

func TestConcurrentCallsKeptSeparate(t *testing.T) {
	k, _, nodes := testNet(8, 3)
	nodes[2].HandleRequest(PortControl, func(src Addr, data []byte) ([]byte, func()) {
		return append([]byte{data[0]}, 'R'), nil
	})
	got := map[byte]string{}
	for i, n := range []*Node{nodes[0], nodes[1]} {
		tag := byte('A' + i)
		n.Call(nodes[2].Addr(), PortControl, []byte{tag}, 0, func(r []byte, err error) {
			if err == nil {
				got[tag] = string(r)
			}
		})
	}
	for k.Step() {
	}
	if got['A'] != "AR" || got['B'] != "BR" {
		t.Fatalf("responses mismatched: %v", got)
	}
}

func TestNilResponseOK(t *testing.T) {
	k, _, nodes := testNet(9, 2)
	nodes[1].HandleRequest(PortControl, func(Addr, []byte) ([]byte, func()) { return nil, nil })
	responded := false
	var gotErr error
	nodes[0].Call(nodes[1].Addr(), PortControl, []byte("x"), 0, func(r []byte, err error) {
		responded = true
		gotErr = err
	})
	for k.Step() {
	}
	if !responded || gotErr != nil {
		t.Fatalf("responded=%v err=%v", responded, gotErr)
	}
}

// A response's sent runs exactly once, and only after its last
// fragment's link result: when the caller got it, when the server's
// radio went down mid-message, and when the caller had already timed
// out. The server sends nothing else, so an empty queue at its station
// means the result being reported is the last fragment's.
func TestResponseSentRunsOnceAfterLastFragment(t *testing.T) {
	const frags = 6
	cases := []struct {
		name      string
		timeout   sim.Time
		radioDown bool
		wantErr   error
	}{
		{name: "delivered"},
		{name: "server radio down mid-message", timeout: sim.Second, radioDown: true, wantErr: ErrTimeout},
		{name: "caller timed out", timeout: sim.Millisecond, wantErr: ErrTimeout},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k := sim.New(11)
			e := env.New(geo.NewFloorPlan(geo.RectAt(0, 0, 100, 100)))
			med := radio.NewMedium(k, e)
			m := mac.New(med)
			nw := New(m)
			cli := nw.NewNode("cli", m.AddStation(med.NewRadio("cli", geo.Pt(0, 0), 6, 15)))
			srvRadio := med.NewRadio("srv", geo.Pt(4, 0), 6, 15)
			srv := nw.NewNode("srv", m.AddStation(srvRadio))
			if tc.radioDown {
				// Take the server's radio down once the caller has
				// received half the response.
				got, deliver := 0, cli.station.OnReceive
				cli.station.OnReceive = func(f mac.Frame) {
					if got++; got == frags/2 {
						med.SetDown(srvRadio, +1)
					}
					deliver(f)
				}
			}
			queued := func() int {
				for _, st := range m.ExportState().Stations {
					if st.Addr == srv.Addr() {
						return st.Queued
					}
				}
				t.Fatal("server station not exported")
				return 0
			}
			resp := make([]byte, frags*MTU)
			sentRuns, queuedAtSent := 0, -1
			var sentAt sim.Time
			srv.HandleRequest(PortControl, func(Addr, []byte) ([]byte, func()) {
				return resp, func() {
					sentRuns++
					queuedAtSent = queued()
					sentAt = k.Now()
				}
			})
			calls := 0
			var callErr error
			var doneAt sim.Time
			cli.Call(srv.Addr(), PortControl, []byte("x"), tc.timeout, func(r []byte, err error) {
				calls++
				callErr, doneAt = err, k.Now()
				if err == nil && len(r) != len(resp) {
					t.Errorf("response has %d bytes, want %d", len(r), len(resp))
				}
			})
			for k.Step() {
			}
			if calls != 1 || !errors.Is(callErr, tc.wantErr) {
				t.Fatalf("call finished %d times with %v, want once with %v", calls, callErr, tc.wantErr)
			}
			if sentRuns != 1 {
				t.Fatalf("sent ran %d times, want 1", sentRuns)
			}
			if queuedAtSent != 0 {
				t.Fatalf("sent ran with %d fragments still queued", queuedAtSent)
			}
			// With the radio down the caller never reads the response;
			// otherwise it has read it, or given up, before sent runs.
			if !tc.radioDown && sentAt < doneAt {
				t.Fatalf("sent ran at %v, before the call finished at %v", sentAt, doneAt)
			}
			if st := srv.station; tc.radioDown && st.SentData >= frags {
				t.Fatalf("server sent %d data frames with its radio down, want fewer than %d", st.SentData, frags)
			}
		})
	}
}

func TestNodeAccessors(t *testing.T) {
	_, nw, nodes := testNet(10, 1)
	if nodes[0].Name() != "node" || nodes[0].station == nil {
		t.Fatal("accessors wrong")
	}
	if nodes[0].Kernel() != nw.kernel {
		t.Fatal("network accessors wrong")
	}
}

// fragments returns the packets sendFragmented would queue for a
// message of frags full MTUs: each carries the whole message.
func fragments(payload []byte, frags int) []packet {
	ps := make([]packet, frags)
	for i := range ps {
		ps[i] = packet{Kind: kindDatagram, Src: 9, MsgID: 1, FragIdx: i, FragCnt: frags, Data: payload}
	}
	return ps
}

// A fragmented message is delivered as the sender's own slice: the
// receiver counts fragments and copies nothing, and its reassembly
// state is recycled, so once warm there is no allocation, however many
// fragments the message had.
func TestReassemblyDeliversSenderSlice(t *testing.T) {
	_, _, nodes := testNet(1, 1)
	nd := nodes[0]
	const frags = 10
	payload := make([]byte, frags*MTU)
	ps := fragments(payload, frags)
	reassembleAll := func() []byte {
		var full []byte
		for _, p := range ps {
			if data, ok := nd.reassemble(p); ok {
				full = data
			}
		}
		return full
	}
	if got := reassembleAll(); len(got) != len(payload) || &got[0] != &payload[0] {
		t.Fatal("reassembly did not deliver the sender's slice")
	}
	if allocs := testing.AllocsPerRun(20, func() { reassembleAll() }); allocs != 0 {
		t.Fatalf("%d-fragment reassembly made %v allocations once warm, want 0", frags, allocs)
	}
}

// Fragments may arrive in any order and more than once: a message is
// delivered exactly once, when the last distinct fragment arrives, and
// out-of-range indices count for nothing.
func TestReassemblyDuplicateAndOutOfOrderFragments(t *testing.T) {
	_, _, nodes := testNet(1, 1)
	nd := nodes[0]
	const frags = 70 // the seen-set spans two words
	payload := []byte("whole message")
	ps := fragments(payload, frags)
	bad := ps[0]
	bad.FragIdx = frags
	delivered := 0
	feed := func(p packet) {
		if data, ok := nd.reassemble(p); ok {
			delivered++
			if &data[0] != &payload[0] {
				t.Fatal("delivered a copy of the message")
			}
		}
	}
	for i := frags - 1; i >= 1; i-- { // all but fragment 0, last first
		feed(ps[i])
		feed(ps[i]) // a duplicate, as a lost ACK's retransmission brings
	}
	feed(bad)
	bad.FragIdx = -1
	feed(bad)
	if delivered != 0 {
		t.Fatalf("delivered before every fragment arrived")
	}
	if got := nd.net.ExportState().Nodes[0].Reassemblies; len(got) != 1 || got[0].Have != frags-1 || got[0].Total != frags {
		t.Fatalf("reassembly export = %+v, want have %d of %d", got, frags-1, frags)
	}
	feed(ps[0])
	if delivered != 1 {
		t.Fatalf("delivered %d times, want once", delivered)
	}
	if got := nd.net.ExportState().Nodes[0].Reassemblies; len(got) != 0 {
		t.Fatalf("completed reassembly left state behind: %+v", got)
	}
}

// A message that lost a fragment is dropped when the next message from
// its source begins: the source's MAC queue is FIFO, so the missing
// fragment can never arrive, and the partial state must not outlive it.
func TestReassemblyDropsMessageWithLostFragment(t *testing.T) {
	_, _, nodes := testNet(1, 1)
	nd := nodes[0]
	const frags = 4
	lost := fragments([]byte("lost a fragment"), frags)
	next := fragments([]byte("arrives whole"), frags)
	for i := range next {
		next[i].MsgID = lost[0].MsgID + 1
	}
	for _, p := range lost[:frags-1] {
		if _, ok := nd.reassemble(p); ok {
			t.Fatal("delivered a message missing a fragment")
		}
	}
	delivered := 0
	for _, p := range next {
		if data, ok := nd.reassemble(p); ok {
			delivered++
			if string(data) != "arrives whole" {
				t.Fatalf("delivered %q", data)
			}
		}
	}
	if delivered != 1 {
		t.Fatalf("next message delivered %d times, want once", delivered)
	}
	if got := nd.net.ExportState().Nodes[0].Reassemblies; len(got) != 0 {
		t.Fatalf("the incomplete message's reassembly was kept: %+v", got)
	}
}

// A multi-fragment multicast reaches every member as the same bytes:
// the sender's buffer, unchanged.
func TestFragmentedMulticastSharesPayload(t *testing.T) {
	k, _, nodes := testNet(11, 4)
	const g Group = 3
	big := make([]byte, 3*MTU+17)
	for i := range big {
		big[i] = byte(i * 13)
	}
	want := bytes.Clone(big)
	got := make([][]byte, len(nodes))
	for i := 1; i < len(nodes); i++ {
		i := i
		nodes[i].Join(g)
		nodes[i].Handle(PortDiscovery, func(_ Addr, data []byte) { got[i] = data })
	}
	nodes[0].SendMulticast(g, PortDiscovery, big)
	for k.Step() {
	}
	for i := 1; i < len(nodes); i++ {
		if len(got[i]) != len(big) || &got[i][0] != &big[0] {
			t.Fatalf("member %d did not receive the sender's buffer (len %d)", i, len(got[i]))
		}
	}
	if !bytes.Equal(big, want) {
		t.Fatal("delivery changed the message")
	}
}

// Each fragment's frame carries a pooled packet record: at 64 bytes it
// stays in the 64-byte size class.
func TestPacketSize(t *testing.T) {
	if n := unsafe.Sizeof(packet{}); n != 64 {
		t.Fatalf("packet is %d bytes, want 64", n)
	}
}

// Every fragment's frame carries the bits of its own part of the
// message, however much of the message the packet holds.
func TestFragmentBitsCoverTheirPart(t *testing.T) {
	k, _, nodes := testNet(12, 2)
	st := nodes[1].station
	var bits []int
	deliver := st.OnReceive
	st.OnReceive = func(f mac.Frame) {
		bits = append(bits, f.Bits)
		deliver(f)
	}
	var got []byte
	nodes[1].Handle(PortDynamic, func(_ Addr, data []byte) { got = data })
	msg := bytes.Repeat([]byte("x"), 2*MTU+5)
	nodes[0].SendDatagram(nodes[1].Addr(), PortDynamic, msg)
	for k.Step() {
	}
	want := []int{(MTU + headerBytes) * 8, (MTU + headerBytes) * 8, (5 + headerBytes) * 8}
	if !slices.Equal(bits, want) {
		t.Fatalf("fragment bits = %v, want %v", bits, want)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("got %d bytes, want the %d sent", len(got), len(msg))
	}
}

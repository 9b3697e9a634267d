package netsim

import (
	"encoding/binary"
	"errors"
	"testing"

	"aroma/internal/env"
	"aroma/internal/geo"
	"aroma/internal/mac"
	"aroma/internal/radio"
	"aroma/internal/sim"
)

// Fragment packets, pending calls and reassembly states are recycled
// per node. These tests pin the lifetimes that make that safe and the
// allocations it saves.

// callRig runs Call round trips from cli to srv whose response spans
// several fragments and asks for sent. Every callback is built once.
type callRig struct {
	k        *sim.Kernel
	cli, srv *Node
	req      []byte
	done     func([]byte, error)
	replies  int // responses received whole
	sents    int // sent callbacks run
}

func newCallRig(seed int64) *callRig {
	k, _, nodes := testNet(seed, 2)
	r := &callRig{k: k, cli: nodes[0], srv: nodes[1], req: []byte("poll")}
	resp := make([]byte, 3*MTU+100)
	sent := func() { r.sents++ }
	r.srv.HandleRequest(PortControl, func(Addr, []byte) ([]byte, func()) { return resp, sent })
	r.done = func(data []byte, err error) {
		if err == nil && len(data) == len(resp) {
			r.replies++
		}
	}
	return r
}

// roundTrip runs one Call to completion.
func (r *callRig) roundTrip() {
	r.cli.Call(r.srv.Addr(), PortControl, r.req, 0, r.done)
	for r.k.Step() {
	}
}

// A warmed Call round trip allocates nothing: the request and the
// four-fragment response ride recycled packets, MAC jobs and ACK
// records, the call record and the reassembly state are recycled, and
// every callback was built before.
func TestCallPathAllocs(t *testing.T) {
	r := newCallRig(1)
	for i := 0; i < 8; i++ {
		r.roundTrip()
	}
	const runs = 100
	if allocs := testing.AllocsPerRun(runs, r.roundTrip); allocs != 0 {
		t.Fatalf("a Call round trip made %v allocations once warm, want 0", allocs)
	}
	if want := 8 + runs + 1; r.replies != want || r.sents != want {
		t.Fatalf("%d replies and %d sent callbacks for %d calls", r.replies, r.sents, want)
	}
}

// A link failure keeps its text and its ErrLinkFailed identity,
// whichever cause the link layer reports.
func TestLinkErrorText(t *testing.T) {
	for _, cause := range []error{mac.ErrTooManyRetries, radio.ErrRadioDown, errors.New("other")} {
		err := linkError(cause)
		if want := ErrLinkFailed.Error() + ": " + cause.Error(); err.Error() != want {
			t.Errorf("linkError(%v) = %q, want %q", cause, err, want)
		}
		if !errors.Is(err, ErrLinkFailed) {
			t.Errorf("linkError(%v) is not ErrLinkFailed", cause)
		}
	}
}

// sentFrag is one fragment as its sender queued it.
type sentFrag struct {
	kind     kind
	msgID    uint64
	idx, cnt int
	bits     int
	data     []byte
}

// TestFragmentHeadersNeverStale runs many fragmented requests,
// responses, datagrams and multicasts both ways while either radio
// drops out now and then mid-message, and checks every frame
// a node receives against the fragments its sender queued, in order.
// A station sends its frames in FIFO order and delivers each at most
// once, so the frames from one source must be a subsequence of what it
// queued, each with its own header, bits and message buffer. A packet
// record recycled while its frame could still be delivered would show
// a later message's MsgID, FragIdx or Kind.
func TestFragmentHeadersNeverStale(t *testing.T) {
	k := sim.New(21)
	e := env.New(geo.NewFloorPlan(geo.RectAt(0, 0, 100, 100)))
	med := radio.NewMedium(k, e)
	m := mac.New(med)
	nw := New(m)
	cliRadio := med.NewRadio("cli", geo.Pt(0, 0), 6, 15)
	srvRadio := med.NewRadio("srv", geo.Pt(4, 0), 6, 15)
	cli := nw.NewNode("cli", m.AddStation(cliRadio))
	srv := nw.NewNode("srv", m.AddStation(srvRadio))
	// Sizes are in hundredths of an MTU, so a message takes one to ten
	// fragments; times are in units of 3 ms, which keeps the link busy
	// enough that calls both complete and time out.
	const unit = 3 * sim.Millisecond
	size := func(hundredths int) int { return hundredths * MTU / 100 }
	const g Group = 5
	cli.Join(g)
	const horizon = 3000 * unit

	queued := map[Addr][]sentFrag{}
	expect := func(nd *Node, kd kind, id uint64, data []byte) {
		n := len(data)
		cnt := max(1, (n+MTU-1)/MTU)
		for i := 0; i < cnt; i++ {
			queued[nd.Addr()] = append(queued[nd.Addr()], sentFrag{
				kind: kd, msgID: id, idx: i, cnt: cnt,
				bits: (min(n-i*MTU, MTU) + headerBytes) * 8,
				data: data,
			})
		}
	}
	cursor := map[Addr]int{}
	frames := 0
	for _, nd := range []*Node{cli, srv} {
		st := nd.station
		deliver := st.OnReceive
		st.OnReceive = func(f mac.Frame) {
			p := *f.Payload.(*packet)
			list, i := queued[f.Src], cursor[f.Src]
			for i < len(list) && (list[i].kind != p.Kind || list[i].msgID != p.MsgID || list[i].idx != p.FragIdx) {
				i++
			}
			if i == len(list) {
				t.Fatalf("at %v a frame from %v reads kind %d msg %d fragment %d/%d: not a fragment queued after the last one received", k.Now(), f.Src, p.Kind, p.MsgID, p.FragIdx, p.FragCnt)
			}
			q := list[i]
			if p.Src != f.Src || p.FragCnt != q.cnt || f.Bits != q.bits || len(p.Data) != len(q.data) || (len(q.data) > 0 && &p.Data[0] != &q.data[0]) {
				t.Fatalf("at %v a frame of %d bits from %v reads msg %d fragment %d/%d of %d bytes from %v; that fragment was queued as %d/%d of %d bytes in %d bits",
					k.Now(), f.Bits, f.Src, p.MsgID, p.FragIdx, p.FragCnt, len(p.Data), p.Src, q.idx, q.cnt, len(q.data), q.bits)
			}
			cursor[f.Src] = i + 1
			frames++
			deliver(f)
		}
	}

	// The server answers every request with a response of its own size,
	// half of them asking for sent. The request names its message ID,
	// so the handler can record the response before it is queued.
	sents := 0
	srv.HandleRequest(PortControl, func(_ Addr, data []byte) ([]byte, func()) {
		id := binary.BigEndian.Uint64(data)
		resp := make([]byte, size(150+97*int(id%9)))
		expect(srv, kindResponse, id, resp)
		if id%2 == 0 {
			return resp, func() { sents++ }
		}
		return resp, nil
	})
	srv.Handle(PortDynamic, func(Addr, []byte) {})
	cli.Handle(PortDynamic, func(Addr, []byte) {})
	cli.Handle(PortDiscovery, func(Addr, []byte) {})

	// The client polls back to back, as rfb.Client.Stream does: each
	// result, whatever it is, starts the next call at once.
	replies, linkFails, timeouts := 0, 0, 0
	var poll func()
	done := func(_ []byte, err error) {
		switch {
		case err == nil:
			replies++
		case errors.Is(err, ErrLinkFailed):
			linkFails++
		case errors.Is(err, ErrTimeout):
			timeouts++
		}
		if k.Now() < horizon {
			poll()
		}
	}
	poll = func() {
		id := nw.msgSeq + 1
		req := binary.BigEndian.AppendUint64(make([]byte, 0, 8+size(200)), id)
		req = req[:8+size(int(id%3)*100)]
		cli.Call(srv.Addr(), PortControl, req, 40*unit, done)
		expect(cli, kindRequest, id, req)
	}
	poll()
	every := func(period sim.Time, fn func(i int)) {
		i := 0
		var tick func()
		tick = func() {
			if k.Now() >= horizon {
				return
			}
			i++
			fn(i)
			k.Schedule(period, "test.tick", tick)
		}
		k.Schedule(period, "test.tick", tick)
	}
	every(7*unit, func(i int) {
		data := make([]byte, size(120+53*(i%6)))
		cli.SendDatagram(srv.Addr(), PortDynamic, data)
		expect(cli, kindDatagram, nw.msgSeq, data)
	})
	every(11*unit, func(i int) {
		data := make([]byte, size(80+61*(i%5)))
		if i%2 == 0 {
			srv.SendMulticast(g, PortDiscovery, data)
			expect(srv, kindMulticast, nw.msgSeq, data)
			return
		}
		srv.SendDatagram(cli.Addr(), PortDynamic, data)
		expect(srv, kindDatagram, nw.msgSeq, data)
	})
	// Each radio drops out now and then, cutting messages short.
	outage := func(r *radio.Radio, period, length sim.Time) {
		every(period, func(int) {
			med.SetDown(r, +1)
			k.Schedule(length, "test.up", func() { med.SetDown(r, -1) })
		})
	}
	outage(srvRadio, 43*unit, 3*unit)
	outage(cliRadio, 97*unit, 5*unit)
	for k.Step() {
	}

	sent := len(queued[cli.Addr()]) + len(queued[srv.Addr()])
	records := len(cli.packetFree) + len(srv.packetFree)
	t.Logf("%d fragments queued on %d packet records, %d received; %d replies, %d link failures, %d timeouts, %d sent callbacks",
		sent, records, frames, replies, linkFails, timeouts, sents)
	if frames < 1000 || replies < 100 || linkFails == 0 || timeouts == 0 || sents == 0 {
		t.Fatal("the run exercised too little")
	}
	if sent < 20*records {
		t.Fatalf("%d fragments used %d packet records: too little recycling to test", sent, records)
	}
}

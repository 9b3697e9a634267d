package rfb

import (
	"bytes"
	"encoding/binary"
	"testing"

	"aroma/internal/env"
	"aroma/internal/geo"
	"aroma/internal/mac"
	"aroma/internal/netsim"
	"aroma/internal/radio"
	"aroma/internal/sim"
)

// remoteRig builds a server node (the laptop) and a client node (the
// adapter) 5 m apart.
func remoteRig(t *testing.T, seed int64, w, h int, enc Encoding) (*sim.Kernel, *Server, *Client) {
	t.Helper()
	k := sim.New(seed)
	e := env.New(geo.NewFloorPlan(geo.RectAt(0, 0, 100, 100)))
	med := radio.NewMedium(k, e)
	m := mac.New(med)
	nw := netsim.New(m)
	srvNode := nw.NewNode("laptop", m.AddStation(med.NewRadio("srv", geo.Pt(0, 0), 6, 15)))
	cliNode := nw.NewNode("adapter", m.AddStation(med.NewRadio("cli", geo.Pt(5, 0), 6, 15)))
	fb, err := NewFramebuffer(w, h)
	if err != nil {
		t.Fatal(err)
	}
	return k, NewServer(srvNode, fb, enc), NewClient(cliNode, srvNode.Addr())
}

// A full frame, mirrored through the reference decoder, reproduces the
// server's screen.
func TestFullUpdateSyncsFramebuffers(t *testing.T) {
	k, srv, cli := remoteRig(t, 1, 64, 48, EncRLE)
	srv.Framebuffer().Fill(0, 0, 64, 48, 5)
	srv.Framebuffer().Fill(8, 8, 16, 16, 9)
	srv.Framebuffer().MarkAllDirty()
	mirror := newRefFB(64, 48)
	var gotErr error
	done := false
	cli.RequestUpdate(0, mirror, func(_ int, err error) {
		gotErr = err
		done = true
	})
	k.RunUntil(5 * sim.Second)
	if !done || gotErr != nil {
		t.Fatalf("update: done=%v err=%v", done, gotErr)
	}
	if !samePixels(srv.Framebuffer(), mirror) {
		t.Fatal("the mirror differs from the server after a full update")
	}
	if cli.UpdatesApplied != 1 || cli.BytesReceived == 0 {
		t.Fatalf("client stats: %d applied %d bytes", cli.UpdatesApplied, cli.BytesReceived)
	}
	if srv.UpdatesServed != 1 {
		t.Fatalf("server stats: %d served", srv.UpdatesServed)
	}
}

func TestIncrementalTracksChanges(t *testing.T) {
	k, srv, cli := remoteRig(t, 2, 64, 48, EncRaw)
	srv.Framebuffer().Fill(0, 0, 64, 48, 1)
	mirror := newRefFB(64, 48)
	cli.RequestUpdate(0, mirror, nil)
	k.RunUntil(2 * sim.Second)
	srv.Framebuffer().Set(3, 3, 77)
	var tiles int
	cli.RequestUpdate(0, mirror, func(n int, err error) {
		if err == nil {
			tiles = n
		}
	})
	k.RunUntil(4 * sim.Second)
	if tiles != 1 {
		t.Fatalf("incremental tiles = %d, want 1", tiles)
	}
	if mirror.Pixel(3, 3) != 77 {
		t.Fatal("change not applied")
	}
	if !samePixels(srv.Framebuffer(), mirror) {
		t.Fatal("the mirror differs from the server")
	}
}

func TestStreamDeliversAnimation(t *testing.T) {
	k, srv, cli := remoteRig(t, 3, 160, 120, EncRLE)
	anim, err := NewAnimator(srv.Framebuffer(), 0.02)
	if err != nil {
		t.Fatal(err)
	}
	// Animate at 30 steps/sec.
	k.Ticker(33*sim.Millisecond, "anim", anim.Step)
	frames := 0
	stop := cli.Stream(sim.Second, func(int) { frames++ })
	k.RunUntil(5 * sim.Second)
	stop()
	if frames < 10 {
		t.Fatalf("streamed only %d frames in 5s", frames)
	}
	if cli.Errors != 0 {
		t.Fatalf("stream errors: %d", cli.Errors)
	}
	k.RunUntil(6 * sim.Second)
	after := frames
	k.RunUntil(8 * sim.Second)
	if frames != after {
		t.Fatal("stream continued after stop")
	}
}

func TestRLEBeatsRawOnFlatContent(t *testing.T) {
	run := func(enc Encoding) uint64 {
		k, srv, cli := remoteRig(t, 4, 320, 240, enc)
		srv.Framebuffer().Fill(0, 0, 320, 240, 3) // flat desktop: every tile changes
		cli.RequestUpdate(0, nil, nil)
		k.RunUntil(20 * sim.Second)
		return cli.BytesReceived
	}
	raw := run(EncRaw)
	rle := run(EncRLE)
	if raw == 0 || rle == 0 {
		t.Fatalf("transfers incomplete: raw=%d rle=%d", raw, rle)
	}
	if rle*10 > raw {
		t.Fatalf("RLE should compress flat content >10x: raw=%d rle=%d", raw, rle)
	}
}

func TestServerIgnoresMalformedRequest(t *testing.T) {
	k, _, cli := remoteRig(t, 5, 32, 32, EncRaw)
	// Direct datagram-level misuse: call with wrong payload size.
	cli.node.Call(cli.server, netsim.PortRFB, []byte{1, 2, 3}, 0, func(resp []byte, err error) {
		if err != nil {
			t.Errorf("call: %v", err)
			return
		}
		if u, err := UnmarshalUpdate(resp); err != nil || len(u.Tiles) != 0 {
			t.Errorf("malformed request should yield empty update: %v %v", u, err)
		}
		if !bytes.Equal(resp, make([]byte, 8)) {
			t.Errorf("malformed request reply = %x, want 8 zero bytes", resp)
		}
	})
	k.RunUntil(2 * sim.Second)
}

// A reply is sent by reference: until its sent runs it can still sit in
// the MAC queue, so encoding the next reply must leave it intact. Once
// sent has run, the next reply reuses its buffer.
func TestServeRepliesDoNotShareBuffers(t *testing.T) {
	_, srv, _ := remoteRig(t, 6, 64, 48, EncRLE)
	fb := srv.Framebuffer()
	fb.Fill(0, 0, 64, 48, 4) // each fill changes every tile
	first, firstSent := srv.serve(0, incremental)
	kept := bytes.Clone(first)
	fb.Fill(0, 0, 64, 48, 9)
	second, secondSent := srv.serve(0, incremental)
	if !bytes.Equal(first, kept) {
		t.Fatal("encoding a second reply changed the first before its sent ran")
	}
	firstSent()
	keptSecond := bytes.Clone(second)
	fb.Fill(0, 0, 64, 48, 5)
	third, thirdSent := srv.serve(0, incremental)
	if &third[0] != &first[0] {
		t.Fatal("the reply after sent did not reuse the released buffer")
	}
	if !bytes.Equal(second, keptSecond) {
		t.Fatal("reusing a released buffer changed a reply whose sent had not run")
	}
	secondSent()
	thirdSent()
}

// In steady state a reply costs no allocation: its buffer comes back
// through sent and serves the next one.
func TestServeAllocsNothing(t *testing.T) {
	_, srv, _ := remoteRig(t, 7, 64, 48, EncRLE)
	srv.Framebuffer().Fill(0, 0, 64, 48, 4)
	allocs := testing.AllocsPerRun(100, func() {
		srv.Framebuffer().MarkAllDirty()
		resp, sent := srv.serve(0, incremental)
		if len(resp) == updateHeaderLen {
			t.Fatal("no tiles")
		}
		sent()
	})
	if allocs != 0 {
		t.Fatalf("serve allocates %v times per reply in steady state, want 0", allocs)
	}
}

// Two clients stream from one server with a Call timeout short enough
// that replies to timed-out calls are still queued when the server
// encodes the next one. Every reply a client receives, and every reply
// when its sent runs, must equal its bytes at encode time.
func TestRecycledRepliesNeverShowStaleBytes(t *testing.T) {
	const w, h = 160, 120
	k := sim.New(8)
	e := env.New(geo.NewFloorPlan(geo.RectAt(0, 0, 100, 100)))
	med := radio.NewMedium(k, e)
	m := mac.New(med)
	nw := netsim.New(m)
	srvStation := m.AddStation(med.NewRadio("srv", geo.Pt(0, 0), 6, 15))
	srvNode := nw.NewNode("laptop", srvStation)
	fb, err := NewFramebuffer(w, h)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(srvNode, fb, EncRaw)
	anim, err := NewAnimator(fb, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	anim.Textured = true
	k.Ticker(20*sim.Millisecond, "anim", anim.Step)

	// The wrapper records each reply by serial as it is encoded.
	type record struct {
		wire             []byte
		servesBefore     int // replies encoded before this one
		servesBeforeSent int // replies encoded, this one included, when its sent ran
		sent, received   bool
	}
	recs := map[uint32]*record{}
	buffers := map[*byte]bool{}
	serves := 0
	srvNode.HandleRequest(netsim.PortRFB, func(src netsim.Addr, req []byte) ([]byte, func()) {
		resp, sent := srv.serve(src, req)
		rec := &record{wire: bytes.Clone(resp), servesBefore: serves}
		recs[binary.BigEndian.Uint32(resp)] = rec
		buffers[&resp[0]] = true
		serves++
		return resp, func() {
			if rec.sent {
				t.Errorf("sent ran twice for one reply")
			}
			if !bytes.Equal(resp, rec.wire) {
				t.Errorf("reply changed before its sent ran")
			}
			rec.sent = true
			rec.servesBeforeSent = serves
			sent()
		}
	})

	const horizon = 5 * sim.Second
	received, timeouts := 0, 0
	for i, x := range []float64{4, -4} {
		cli := nw.NewNode("adapter", m.AddStation(med.NewRadio("cli", geo.Pt(x, float64(i)), 6, 15)))
		var poll func()
		poll = func() {
			cli.Call(srvNode.Addr(), netsim.PortRFB, incremental, 10*sim.Millisecond, func(resp []byte, err error) {
				if err != nil {
					timeouts++
				} else if rec := recs[binary.BigEndian.Uint32(resp)]; rec == nil || !bytes.Equal(resp, rec.wire) {
					t.Errorf("client received a reply that differs from its encoding")
				} else {
					rec.received = true
					received++
				}
				if k.Now() < horizon {
					poll()
				}
			})
		}
		poll()
	}
	k.RunUntil(horizon + sim.Second)

	// A late reply: its caller timed out, so no client took it, and it
	// was still queued when a later reply was encoded.
	late := 0
	for _, rec := range recs {
		if rec.sent && !rec.received && rec.servesBeforeSent > rec.servesBefore+1 {
			late++
		}
	}
	t.Logf("%d replies in %d buffers; %d received, %d calls timed out, %d late replies queued past the next encode",
		serves, len(buffers), received, timeouts, late)
	if srvStation.Drops != 0 {
		t.Fatalf("server dropped %d frames: an unreceived reply need not be late", srvStation.Drops)
	}
	if received == 0 || timeouts == 0 || late == 0 {
		t.Fatal("the run did not exercise late replies: tune the timeout or the load")
	}
	if len(buffers)*2 > serves {
		t.Fatalf("%d replies used %d buffers: they were not recycled", serves, len(buffers))
	}
}

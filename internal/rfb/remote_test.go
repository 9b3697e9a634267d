package rfb

import (
	"bytes"
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
	e := env.New(k, geo.NewFloorPlan(geo.RectAt(0, 0, 100, 100)))
	med := radio.NewMedium(k, e)
	m := mac.New(med, mac.Config{})
	nw := netsim.New(m)
	srvNode := nw.NewNode("laptop", m.AddStation(med.NewRadio("srv", geo.Pt(0, 0), 6, 15)))
	cliNode := nw.NewNode("adapter", m.AddStation(med.NewRadio("cli", geo.Pt(5, 0), 6, 15)))
	fb, err := NewFramebuffer(w, h)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(srvNode, fb, enc)
	cli, err := NewClient(cliNode, srvNode.Addr(), w, h)
	if err != nil {
		t.Fatal(err)
	}
	return k, srv, cli
}

func TestFullUpdateSyncsFramebuffers(t *testing.T) {
	k, srv, cli := remoteRig(t, 1, 64, 48, EncRLE)
	srv.Framebuffer().Fill(0, 0, 64, 48, 5)
	srv.Framebuffer().Fill(8, 8, 16, 16, 9)
	var gotErr error
	done := false
	cli.RequestUpdate(true, 0, func(_ int, err error) {
		gotErr = err
		done = true
	})
	k.RunUntil(5 * sim.Second)
	if !done || gotErr != nil {
		t.Fatalf("update: done=%v err=%v", done, gotErr)
	}
	if !srv.Framebuffer().Equal(cli.Framebuffer()) {
		t.Fatal("framebuffers differ after full update")
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
	cli.RequestUpdate(true, 0, nil)
	k.RunUntil(2 * sim.Second)
	srv.Framebuffer().Set(3, 3, 77)
	var tiles int
	cli.RequestUpdate(false, 0, func(n int, err error) {
		if err == nil {
			tiles = n
		}
	})
	k.RunUntil(4 * sim.Second)
	if tiles != 1 {
		t.Fatalf("incremental tiles = %d, want 1", tiles)
	}
	if cli.Framebuffer().Pixel(3, 3) != 77 {
		t.Fatal("change not applied")
	}
	if !srv.Framebuffer().Equal(cli.Framebuffer()) {
		t.Fatal("framebuffers differ")
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
		srv.Framebuffer().Fill(0, 0, 320, 240, 3) // flat desktop
		cli.RequestUpdate(true, 0, nil)
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
	k, srv, cli := remoteRig(t, 5, 32, 32, EncRaw)
	// Direct datagram-level misuse: call with wrong payload size.
	cli.node.Call(srv.node.Addr(), netsim.PortRFB, []byte{1, 2, 3}, 0, func(resp []byte, err error) {
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

// A reply must survive the next one: after a Call timeout its fragments
// can still be queued in the MAC while the server encodes again.
func TestServeRepliesDoNotShareBuffers(t *testing.T) {
	_, srv, _ := remoteRig(t, 6, 64, 48, EncRLE)
	srv.Framebuffer().Fill(0, 0, 64, 48, 4)
	first := srv.serve(0, []byte{reqFull})
	kept := bytes.Clone(first)
	srv.Framebuffer().Fill(0, 0, 64, 48, 9)
	second := srv.serve(0, []byte{reqFull})
	if !bytes.Equal(first, kept) {
		t.Fatal("encoding a second reply changed the first")
	}
	if len(first) != cap(first) || len(second) != cap(second) {
		t.Fatalf("replies are not exact-size: len/cap %d/%d and %d/%d", len(first), cap(first), len(second), cap(second))
	}
}

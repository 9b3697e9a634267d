package mac

import (
	"fmt"
	"testing"

	"aroma/internal/env"
	"aroma/internal/geo"
	"aroma/internal/radio"
	"aroma/internal/sim"
)

// Data frames travel by reference to their pooled txJob, and finished
// jobs and delivered Transmissions are recycled. These tests pin the
// lifetimes that make that safe.

// TestFramesSurviveRetransmissionAndInterleavedAcks chains sends on two
// stations, so every frame after the first rides a recycled job while
// the peer's data and ACKs interleave with it. A jammer beside a wipes
// out the ACK of a's first frame, forcing a retransmission that b must
// re-ACK without delivering twice. Every frame must arrive exactly as
// it was sent: a payload that aliased a recycled record would show up
// as a wrong or repeated Seq or Payload.
func TestFramesSurviveRetransmissionAndInterleavedAcks(t *testing.T) {
	k := sim.New(11)
	e := env.New(k, geo.NewFloorPlan(geo.RectAt(0, 0, 100, 100)))
	med := radio.NewMedium(k, e)
	m := New(med, Config{})
	a := m.AddStation(med.NewRadio("a", geo.Pt(0, 0), 6, 15))
	b := m.AddStation(med.NewRadio("b", geo.Pt(5, 0), 6, 15))
	jam := med.NewRadio("jam", geo.Pt(0, 1), 6, 15)

	const perStation = 6
	sent := map[*Station][]Frame{}
	got := map[*Station][]Frame{}
	var results []SendResult
	// send queues frame i from s, then chains frame i+1 from its done
	// callback. Odd frames are broadcasts.
	var send func(s, peer *Station, i int)
	send = func(s, peer *Station, i int) {
		if i == perStation {
			return
		}
		dst := peer.Addr()
		if i%2 == 1 {
			dst = Broadcast
		}
		payload := fmt.Sprintf("%v-%d", s.Addr(), i)
		bits := 4000 + 800*i
		if err := s.Send(dst, bits, payload, func(r SendResult) {
			results = append(results, r)
			send(s, peer, i+1)
		}); err != nil {
			t.Fatal(err)
		}
		sent[s] = append(sent[s], Frame{Kind: Data, Src: s.Addr(), Dst: dst, Seq: m.seq, Bits: bits, Payload: payload})
	}
	jammed := false
	a.OnReceive = func(f Frame) { got[a] = append(got[a], f) }
	b.OnReceive = func(f Frame) {
		got[b] = append(got[b], f)
		if !jammed && f.Src == a.Addr() {
			// The ACK goes out SIFS from now; drown it at a.
			jammed = true
			if _, err := med.Transmit(jam, 4000, radio.Rates[0], nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	send(a, b, 0)
	send(b, a, 0)
	k.Run()

	if a.RetriesTotal == 0 {
		t.Fatal("the jammed ACK forced no retransmission")
	}
	if b.SentAcks <= uint64(perStation/2) {
		t.Fatalf("b sent %d ACKs for %d unicasts: the duplicate was not re-ACKed", b.SentAcks, perStation/2)
	}
	for _, pair := range [][2]*Station{{a, b}, {b, a}} {
		from, to := pair[0], pair[1]
		if fmt.Sprint(got[to]) != fmt.Sprint(sent[from]) {
			t.Fatalf("station %v received\n%v\nwant exactly\n%v", to.Addr(), got[to], sent[from])
		}
	}
	if len(results) != 2*perStation {
		t.Fatalf("%d send results, want %d", len(results), 2*perStation)
	}
	bySeq := map[uint64]Frame{}
	for _, fs := range sent {
		for _, f := range fs {
			bySeq[f.Seq] = f
		}
	}
	for _, r := range results {
		if !r.OK || r.Frame != bySeq[r.Frame.Seq] {
			t.Fatalf("send result %+v, want OK for %+v", r, bySeq[r.Frame.Seq])
		}
	}
}

// jobLabels are the kernel labels of the timers whose argument is a
// txJob.
var jobLabels = map[string]bool{
	"mac.csWait": true, "mac.difs": true, "mac.backoff": true,
	"mac.bcastDone": true, "mac.ackTimeout": true,
}

// TestRecycledJobsHaveNoPendingEvents drives contention, collisions,
// drops at the retry limit and transmit failures on a downed radio, and
// after every kernel step checks that a recycled txJob is never the
// argument of a pending event. The kernel does not expose arguments, so
// the check counts: a job in flight has exactly one pending timer, so
// the pending job timers must number the stations with a job in
// flight. A timer left pending for a recycled job would exceed that
// count, whether or not the job was reused since; and every recycled
// job must be zeroed and in no station's queue.
func TestRecycledJobsHaveNoPendingEvents(t *testing.T) {
	k, m, sta := testbed(9, 6)
	far := m.AddStation(m.Medium().NewRadio("far", geo.Pt(490, 0), 6, 15)) // out of everyone's range
	downFails := 0
	done := func(r SendResult) {
		if r.Err == radio.ErrRadioDown {
			downFails++
		}
	}
	for i, s := range sta {
		for j := 0; j < 5; j++ {
			dst := sta[(i+j+1)%len(sta)].Addr()
			switch {
			case j == 2:
				dst = Broadcast
			case i == 0 && j == 4:
				dst = far.Addr()
			}
			if err := s.Send(dst, 2000+400*j, nil, done); err != nil {
				t.Fatal(err)
			}
		}
	}
	// sta[3] loses its radio for a while: its sends fail at Transmit.
	down := sta[3].Radio()
	k.Schedule(2*sim.Millisecond, "test.down", func() { m.Medium().SetDown(down, 1) })
	k.Schedule(6*sim.Millisecond, "test.up", func() { m.Medium().SetDown(down, -1) })

	stations := append(sta, far)
	steps := 0
	for k.Step() {
		steps++
		timers := 0
		for _, p := range k.ExportState().Pending {
			if jobLabels[p.Label] {
				timers++
			}
		}
		inFlight := map[*txJob]bool{}
		current := 0
		for _, s := range stations {
			if s.current != nil {
				inFlight[s.current] = true
				current++
			}
			for _, j := range s.queue {
				inFlight[j] = true
			}
		}
		if timers != current {
			t.Fatalf("step %d at %v: %d pending job timers for %d jobs in flight", steps, k.Now(), timers, current)
		}
		for _, j := range m.jobFree {
			if inFlight[j] || j.owner != nil || j.done != nil || j.frame != (Frame{}) || j.ackTimeout != (sim.Event{}) {
				t.Fatalf("step %d: recycled job %p is live or not zeroed: %+v", steps, j, *j)
			}
		}
	}
	if len(m.jobFree) == 0 || m.Drops == 0 || m.Retries == 0 || downFails == 0 {
		t.Fatalf("run exercised too little: %d recycled jobs, %d drops, %d retries, %d transmit failures", len(m.jobFree), m.Drops, m.Retries, downFails)
	}
}

// TestFramePathAllocs bounds the steady-state allocations of a warmed
// medium and MAC pair. A broadcast allocates nothing: its job, its
// Transmission, its ledger and every timer are recycled. A unicast
// exchange allocates only the ACK's Frame.
func TestFramePathAllocs(t *testing.T) {
	k, _, sta := testbed(1, 2)
	a, b := sta[0], sta[1]
	b.OnReceive = func(Frame) {}
	for i := 0; i < 8; i++ {
		_ = a.Send(Broadcast, 8000, nil, nil)
		_ = a.Send(b.Addr(), 8000, nil, nil)
		k.Run()
	}
	for _, c := range []struct {
		name string
		dst  Addr
		want float64
	}{{"broadcast", Broadcast, 0}, {"unicast exchange", b.Addr(), 1}} {
		got := testing.AllocsPerRun(200, func() {
			_ = a.Send(c.dst, 8000, nil, nil)
			k.Run()
		})
		if got > c.want {
			t.Errorf("%s: %v allocs, want at most %v", c.name, got, c.want)
		}
	}
}

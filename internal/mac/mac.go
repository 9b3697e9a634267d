// Package mac implements a CSMA/CA medium-access layer over the radio
// package, in the style of 1999-era 802.11 DCF: carrier sense, DIFS/SIFS
// interframe spacing, slotted binary-exponential backoff, link-level ACKs
// and retransmission for unicast frames, and unacknowledged broadcast.
//
// The backoff policy (MAC.Backoff) is pluggable, binary exponential or
// fixed window, so the device-density experiment (C2) can ablate the
// design choice.
//
// A backoff slot is one kernel event, but a slot that nothing else can
// observe is counted down inline: right after a slot or DIFS event has
// found the medium idle, Station.backoff hands the remaining slots to
// radio.Medium.SkipIdle, which skips those that fall before the
// radio's carrier-sense answer can change and before any other queued
// event, sampler instant or RunUntil deadline (sim.Kernel.Skip). Each
// skipped slot still counts one kernel step and one sequence number,
// so Steps, Seq, digests and telemetry are those of a run that fires
// every slot. Only these two callback tails skip: Send runs from
// upper-layer code, which must never see the clock jump.
package mac

import (
	"errors"
	"fmt"

	"aroma/internal/radio"
	"aroma/internal/sim"
)

// Addr is a link-layer station address. Addresses are assigned densely by
// the MAC starting at 1; Broadcast is the all-stations address.
type Addr uint16

// Broadcast is the all-stations destination address.
const Broadcast Addr = 0xFFFF

// 802.11b DSSS timing parameters.
const (
	SlotTime   = 20 * sim.Microsecond
	SIFS       = 10 * sim.Microsecond
	DIFS       = SIFS + 2*SlotTime // 50 us
	AckBits    = 14 * 8
	HeaderBits = 34 * 8
	CWMin      = 31
	CWMax      = 1023
	MaxRetries = 7
)

// FrameKind distinguishes data frames from control frames.
type FrameKind int

// Frame kinds.
const (
	Data FrameKind = iota
	Ack
)

// Frame is a link-layer frame.
type Frame struct {
	Kind    FrameKind
	Src     Addr
	Dst     Addr
	Seq     uint64
	Bits    int // payload size in bits, excluding MAC header
	Payload any
}

// SendResult reports the fate of a queued unicast frame at the sender.
type SendResult struct {
	Frame   Frame
	OK      bool
	Retries int
	Err     error
}

// BackoffPolicy selects the contention-window behaviour.
type BackoffPolicy int

// Backoff policies.
const (
	// BinaryExponential doubles the contention window on every failed
	// attempt (the 802.11 default).
	BinaryExponential BackoffPolicy = iota
	// FixedWindow keeps the window at CWMin regardless of failures; used
	// as the ablation arm in the device-density experiment.
	FixedWindow
)

// MAC manages the set of stations sharing one radio medium.
type MAC struct {
	// Backoff is the contention-window policy every station follows
	// after a failed attempt. The zero value is BinaryExponential, the
	// 802.11 default; the device-density experiment (C2) sets
	// FixedWindow as its ablation arm. Set it before the first Send.
	// It is configuration, not state: ExportState leaves it out.
	Backoff BackoffPolicy

	kernel   *sim.Kernel
	medium   *radio.Medium
	stations map[Addr]*Station
	nextAddr Addr
	seq      uint64
	ackFree  []*pendingAck // recycled SIFS-ack records
	acksOut  []*pendingAck // fired ACKs whose delivery may not have ended
	jobFree  []*txJob      // recycled contention jobs (see finishJob)

	// MAC-wide aggregate stats, maintained alongside the per-station
	// counters so telemetry reads one field instead of iterating the
	// stations map. Observability-only: absent from ExportState and
	// every digest input.
	Backoffs    uint64 // backoff countdowns started (one per DIFS win)
	Retries     uint64 // retransmissions after ACK timeout
	AckTimeouts uint64 // ACK timers that expired
	Drops       uint64 // unicast frames dropped at the retry limit
	SentData    uint64 // data frames put on the air
	SentAcks    uint64 // ACK frames put on the air
	DeliveredUp uint64 // data frames delivered to OnReceive handlers
}

// New creates a MAC over the given medium.
func New(m *radio.Medium) *MAC {
	return &MAC{
		kernel:   m.Kernel(),
		medium:   m,
		stations: make(map[Addr]*Station),
	}
}

// Medium returns the underlying radio medium.
func (m *MAC) Medium() *radio.Medium { return m.medium }

// Station is one MAC endpoint bound to a radio.
type Station struct {
	mac   *MAC
	radio *radio.Radio
	addr  Addr

	// queue[head:] are the frames waiting behind current. Dequeueing
	// advances head, so the array keeps its capacity for Send's append;
	// it is compacted when it empties (dequeue) or fills (Send).
	queue   []*txJob
	head    int
	current *txJob

	// lastSeq tracks the highest data-frame sequence delivered per
	// source, for receiver-side duplicate detection: a retransmission
	// whose original ACK was lost is re-ACKed but not delivered upward
	// a second time (802.11 retry-bit semantics).
	lastSeq map[Addr]uint64

	// OnReceive is invoked for every data frame delivered to this
	// station (unicast to it, or broadcast).
	OnReceive func(Frame)

	// Stats
	SentData     uint64
	SentAcks     uint64
	DeliveredUp  uint64
	Drops        uint64
	RetriesTotal uint64
}

// txJob carries one queued frame through the contention state machine.
// The job itself is the argument threaded through the kernel's pooled
// ScheduleFn timers (csWait, DIFS, backoff slots, broadcast completion,
// ACK timeout), so the per-slot timer churn that dominates event volume
// allocates nothing. Its frame is the payload of every transmission of
// it, by reference: the job outlives each one (broadcast completion
// fires after the frame's txEnd at the same instant, and the ACK
// timeout is longer than the air time). Jobs are recycled through
// MAC.jobFree once finished.
type txJob struct {
	owner      *Station
	frame      Frame
	retries    int
	cw         int
	slots      int // backoff slots remaining
	done       func(SendResult)
	ackTimeout sim.Event
}

// ScheduleFn trampolines. Package-level functions (not closures) so
// scheduling them is allocation-free; each recovers its state from the
// job argument.
func jobCSWait(a any) { j := a.(*txJob); j.owner.defer_(j) }

func jobDIFSDone(a any) {
	j := a.(*txJob)
	s := j.owner
	if s.mac.medium.Busy(s.radio) {
		s.defer_(j)
		return
	}
	j.slots = s.mac.kernel.Rand().Intn(j.cw + 1)
	s.mac.Backoffs++
	s.backoff(j)
}

func jobBackoffSlot(a any) {
	j := a.(*txJob)
	s := j.owner
	if s.mac.medium.Busy(s.radio) {
		s.defer_(j) // freeze: re-contend after the medium clears
		return
	}
	j.slots--
	s.backoff(j)
}

func jobBcastDone(a any) {
	j := a.(*txJob)
	j.owner.finishJob(j, SendResult{Frame: j.frame, OK: true, Retries: j.retries})
}

func jobAckTimeout(a any) { j := a.(*txJob); j.owner.onAckTimeout(j) }

// AddStation binds a new station to the given radio and returns it.
//
// A radio has a single owner: the station takes over the radio's
// OnReceive handler, so binding a radio that already has one (a second
// station, or custom receive logic wired by scenario code) would silently
// disconnect the first owner. That is a wiring bug, and it panics here —
// at assembly time — rather than surfacing as lost frames mid-run.
func (m *MAC) AddStation(r *radio.Radio) *Station {
	if r.OnReceive != nil {
		panic(fmt.Sprintf("mac: radio %q already has an OnReceive handler (double-bound station, or custom receive logic); a radio has a single owner", r.Name))
	}
	m.nextAddr++
	st := &Station{mac: m, radio: r, addr: m.nextAddr, lastSeq: make(map[Addr]uint64)}
	m.stations[st.addr] = st
	r.OnReceive = st.onRadioReceive
	return st
}

// Addr returns the station's link-layer address.
func (s *Station) Addr() Addr { return s.addr }

// ErrTooManyRetries is reported when a unicast frame exhausts its retries.
var ErrTooManyRetries = errors.New("mac: retry limit exceeded")

// ErrZeroBits is reported for frames with no payload bits.
var ErrZeroBits = errors.New("mac: payload must have at least one bit")

// Send queues a frame for transmission. done (optional) is invoked with
// the outcome: immediately-known failures, broadcast completion (always
// OK), or unicast ACK/drop.
func (s *Station) Send(dst Addr, bits int, payload any, done func(SendResult)) error {
	if bits <= 0 {
		return ErrZeroBits
	}
	s.mac.seq++
	var job *txJob
	if n := len(s.mac.jobFree); n > 0 {
		job = s.mac.jobFree[n-1]
		s.mac.jobFree = s.mac.jobFree[:n-1]
	} else {
		job = &txJob{}
	}
	*job = txJob{
		owner: s,
		frame: Frame{Kind: Data, Src: s.addr, Dst: dst, Seq: s.mac.seq, Bits: bits, Payload: payload},
		cw:    CWMin,
		done:  done,
	}
	if len(s.queue) == cap(s.queue) && 2*s.head >= len(s.queue) && s.head > 0 {
		// At least half the array is dequeued slots: reuse them
		// rather than grow. Each copy follows as many dequeues as it
		// moves jobs, so a dequeue costs O(1) amortized.
		n := copy(s.queue, s.queue[s.head:])
		clear(s.queue[n:])
		s.queue, s.head = s.queue[:n], 0
	}
	s.queue = append(s.queue, job)
	if s.current == nil {
		s.dequeue()
	}
	return nil
}

// queued returns the number of frames waiting behind current.
func (s *Station) queued() int { return len(s.queue) - s.head }

func (s *Station) dequeue() {
	if s.head == len(s.queue) {
		s.current = nil
		s.queue, s.head = s.queue[:0], 0 // keep the array: the next Send appends into it
		return
	}
	s.current = s.queue[s.head]
	s.queue[s.head] = nil
	s.head++
	s.defer_(s.current)
}

// defer_ waits for the medium to go idle, then DIFS, then backoff.
func (s *Station) defer_(job *txJob) {
	if s.mac.medium.Busy(s.radio) {
		s.mac.kernel.ScheduleFn(SlotTime, "mac.csWait", jobCSWait, job)
		return
	}
	s.mac.kernel.ScheduleFn(DIFS, "mac.difs", jobDIFSDone, job)
}

// backoff counts down job.slots idle slots, freezing when the medium
// goes busy. Its callers have just seen the medium idle at the tail of
// a kernel callback, which is where SkipIdle may skip slots.
func (s *Station) backoff(job *txJob) {
	job.slots -= s.mac.medium.SkipIdle(s.radio, SlotTime, job.slots)
	if job.slots <= 0 {
		s.transmit(job)
		return
	}
	s.mac.kernel.ScheduleFn(SlotTime, "mac.backoff", jobBackoffSlot, job)
}

// pickRate selects the PHY rate for a frame: base rate for broadcast,
// SNR-adapted for unicast when the peer is known.
func (s *Station) pickRate(dst Addr) radio.Rate {
	if dst == Broadcast {
		return radio.Rates[0]
	}
	peer := s.mac.stations[dst]
	if peer == nil {
		return radio.Rates[0]
	}
	return radio.PickRate(s.mac.medium.SNRAtDBm(s.radio, peer.radio))
}

func (s *Station) transmit(job *txJob) {
	rate := s.pickRate(job.frame.Dst)
	totalBits := job.frame.Bits + HeaderBits
	tx, err := s.mac.medium.Transmit(s.radio, totalBits, rate, &job.frame)
	if err != nil {
		s.finishJob(job, SendResult{Frame: job.frame, OK: false, Retries: job.retries, Err: err})
		return
	}
	s.SentData++
	s.mac.SentData++
	air := tx.Airtime()
	if job.frame.Dst == Broadcast {
		// Unacknowledged: done when the frame leaves the air.
		s.mac.kernel.ScheduleFn(air, "mac.bcastDone", jobBcastDone, job)
		return
	}
	// Unicast: wait for the ACK.
	ackAir := sim.Time(float64(AckBits) / (radio.Rates[0].Mbps * 1e6) * float64(sim.Second))
	timeout := air + SIFS + ackAir + 3*SlotTime
	job.ackTimeout = s.mac.kernel.ScheduleFn(timeout, "mac.ackTimeout", jobAckTimeout, job)
}

func (s *Station) onAckTimeout(job *txJob) {
	job.retries++
	s.RetriesTotal++
	s.mac.AckTimeouts++
	s.mac.Retries++
	if job.retries > MaxRetries {
		s.Drops++
		s.mac.Drops++
		s.finishJob(job, SendResult{Frame: job.frame, OK: false, Retries: job.retries, Err: ErrTooManyRetries})
		return
	}
	if s.mac.Backoff == BinaryExponential {
		job.cw = job.cw*2 + 1
		if job.cw > CWMax {
			job.cw = CWMax
		}
	}
	s.defer_(job)
}

// finishJob reports a job's outcome and starts the next queued one.
// The job is then recycled: its ACK timeout is cancelled (which drops
// the kernel's reference to it), and it has no other timer pending,
// since every caller runs from the job's only live event or from the
// ACK that ends its wait. No transmission of its frame is in the air.
func (s *Station) finishJob(job *txJob, res SendResult) {
	s.mac.kernel.Cancel(job.ackTimeout) // no-op for the zero Event
	if job.done != nil {
		job.done(res)
	}
	if s.current == job {
		s.dequeue()
	}
	*job = txJob{}
	s.mac.jobFree = append(s.mac.jobFree, job)
}

// onRadioReceive handles every decodable frame that ends at this radio.
func (s *Station) onRadioReceive(rc radio.Receipt) {
	if !rc.OK {
		return
	}
	// The payload is the sender's pooled record: copy it before the
	// delivery ends.
	fp, ok := rc.Tx.Payload().(*Frame)
	if !ok {
		return
	}
	frame := *fp
	switch frame.Kind {
	case Data:
		if frame.Dst == Broadcast {
			s.deliverUp(frame)
			return
		}
		if frame.Dst != s.addr {
			return
		}
		if frame.Seq <= s.lastSeq[frame.Src] {
			s.sendAck(frame) // duplicate: the previous ACK was lost
			return
		}
		s.lastSeq[frame.Src] = frame.Seq
		s.deliverUp(frame)
		s.sendAck(frame)
	case Ack:
		if frame.Dst != s.addr || s.current == nil {
			return
		}
		if s.current.frame.Seq != frame.Seq {
			return
		}
		job := s.current
		s.finishJob(job, SendResult{Frame: job.frame, OK: true, Retries: job.retries})
	}
}

func (s *Station) deliverUp(frame Frame) {
	s.DeliveredUp++
	s.mac.DeliveredUp++
	if s.OnReceive != nil {
		s.OnReceive(frame)
	}
}

// pendingAck is one SIFS-deferred ACK, recycled through MAC.ackFree so
// an ACK allocates nothing: its record is the timer's argument, and the
// ACK goes on the air as &frame. A fired record therefore waits on
// MAC.acksOut until its delivery has ended. Every ACK has the same air
// time (AckBits at Rates[0]), so ACKs leave the air in the order they
// fired and acksOut is sorted by end.
type pendingAck struct {
	s     *Station
	frame Frame
	end   sim.Time // when the fired ACK leaves the air
}

func firePendingAck(a any) {
	pa := a.(*pendingAck)
	s := pa.s
	pa.s = nil
	tx, err := s.mac.medium.Transmit(s.radio, AckBits, radio.Rates[0], &pa.frame)
	if err != nil {
		s.mac.ackFree = append(s.mac.ackFree, pa) // never on the air
		return
	}
	s.SentAcks++
	s.mac.SentAcks++
	pa.end = tx.End
	s.mac.acksOut = append(s.mac.acksOut, pa)
}

// reclaimAcks moves the fired ACKs whose delivery has ended to ackFree.
// A delivery runs at its transmission's end, possibly after the event
// calling this at the same instant, so only an end before now is past.
func (m *MAC) reclaimAcks() {
	now := m.kernel.Now()
	i := 0
	for i < len(m.acksOut) && m.acksOut[i].end < now {
		i++
	}
	if i == 0 {
		return
	}
	m.ackFree = append(m.ackFree, m.acksOut[:i]...)
	m.acksOut = m.acksOut[:copy(m.acksOut, m.acksOut[i:])]
}

// sendAck transmits an immediate ACK after SIFS at the base rate,
// bypassing contention as 802.11 does.
func (s *Station) sendAck(data Frame) {
	s.mac.reclaimAcks()
	var pa *pendingAck
	if n := len(s.mac.ackFree); n > 0 {
		pa = s.mac.ackFree[n-1]
		s.mac.ackFree = s.mac.ackFree[:n-1]
	} else {
		pa = &pendingAck{}
	}
	pa.s = s
	pa.frame = Frame{Kind: Ack, Src: s.addr, Dst: data.Src, Seq: data.Seq}
	s.mac.kernel.ScheduleFn(SIFS, "mac.sifsAck", firePendingAck, pa)
}

// String summarizes the station.
func (s *Station) String() string {
	return fmt.Sprintf("sta%d{q=%d sent=%d drops=%d}", s.addr, s.queued(), s.SentData, s.Drops)
}

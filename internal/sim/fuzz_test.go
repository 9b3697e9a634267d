package sim

import (
	"fmt"
	"math/bits"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// fuzzTape doles out the fuzzer's bytes; once they run out it yields
// zeros.
type fuzzTape []byte

func (in *fuzzTape) next() byte {
	if len(*in) == 0 {
		return 0
	}
	b := (*in)[0]
	*in = (*in)[1:]
	return b
}

// recurringDelays are the delays most operations draw: more of them
// than there are FIFOs, so FIFOs fill up, drain and reopen for other
// delays.
var recurringDelays = [...]Time{
	0, 10 * Microsecond, 20 * Microsecond, 50 * Microsecond,
	Millisecond, 33 * Millisecond, 100 * Millisecond, 400 * Millisecond,
	3 * Microsecond, 7 * Microsecond, 250 * Microsecond, 2 * Millisecond,
}

// delay returns a recurring delay for a byte below 224, else a random
// one in [0, 65.5 ms) read from the next two bytes.
func (in *fuzzTape) delay() Time {
	if b := in.next(); b < 224 {
		return recurringDelays[int(b)%len(recurringDelays)]
	}
	return Time(int(in.next())<<8|int(in.next())) * Microsecond
}

// firing is one observed callback: an event (its own seq), a ticker
// tick (the kernel's seq counter when it ran) or a sampler (seq 0).
type firing struct {
	at    Time
	seq   uint64
	label string
}

// oracleSide adapts Kernel or heapKernel to the one operation set the
// fuzz target plays on both. Handles are kept per side, in creation
// order, so an index names the same event on both.
type oracleSide interface {
	now() Time
	seq() uint64
	pending() int
	scheduleFn(d Time, label string, fn func(any), arg any)
	schedule(d Time, label string, fn func())
	cancel(i int) bool
	handles() int
	ticker(period Time, label string, fn func()) (stop func())
	addSampler(period Time, fn func(Time)) (stop func())
	step() bool
	runUntil(deadline Time) uint64
	state() State
}

type kernelSide struct {
	k  *Kernel
	hs []Event
}

func (s *kernelSide) now() Time    { return s.k.Now() }
func (s *kernelSide) seq() uint64  { return s.k.Seq() }
func (s *kernelSide) pending() int { return s.k.Pending() }
func (s *kernelSide) handles() int { return len(s.hs) }
func (s *kernelSide) scheduleFn(d Time, label string, fn func(any), arg any) {
	s.hs = append(s.hs, s.k.ScheduleFn(d, label, fn, arg))
}
func (s *kernelSide) schedule(d Time, label string, fn func()) {
	s.hs = append(s.hs, s.k.Schedule(d, label, fn))
}
func (s *kernelSide) cancel(i int) bool { return s.k.Cancel(s.hs[i]) }
func (s *kernelSide) ticker(p Time, label string, fn func()) func() {
	return s.k.Ticker(p, label, fn)
}
func (s *kernelSide) addSampler(p Time, fn func(Time)) func() { return s.k.AddSampler(p, fn) }
func (s *kernelSide) step() bool                              { return s.k.Step() }
func (s *kernelSide) runUntil(t Time) uint64                  { return s.k.RunUntil(t) }
func (s *kernelSide) state() State                            { return s.k.ExportState() }

type heapSide struct {
	k  *heapKernel
	hs []heapEvent
}

func (s *heapSide) now() Time    { return s.k.now }
func (s *heapSide) seq() uint64  { return s.k.seq }
func (s *heapSide) pending() int { return s.k.live }
func (s *heapSide) handles() int { return len(s.hs) }
func (s *heapSide) scheduleFn(d Time, label string, fn func(any), arg any) {
	s.hs = append(s.hs, s.k.ScheduleFn(d, label, fn, arg))
}
func (s *heapSide) schedule(d Time, label string, fn func()) {
	s.hs = append(s.hs, s.k.Schedule(d, label, fn))
}
func (s *heapSide) cancel(i int) bool { return s.k.Cancel(s.hs[i]) }
func (s *heapSide) ticker(p Time, label string, fn func()) func() {
	return s.k.Ticker(p, label, fn)
}
func (s *heapSide) addSampler(p Time, fn func(Time)) func() { return s.k.AddSampler(p, fn) }
func (s *heapSide) step() bool                              { return s.k.Step() }
func (s *heapSide) runUntil(t Time) uint64                  { return s.k.RunUntil(t) }
func (s *heapSide) state() State                            { return s.k.ExportState() }

// player drives one side and records what fires on it.
type player struct {
	side     oracleSide
	log      []firing
	tickers  []func()
	samplers []func()
}

// chain is a ScheduleFn payload that re-arms itself with the same
// delay left more times, the way a MAC backoff counts slots down.
type chain struct {
	p     *player
	label string
	seq   uint64
	delay Time
	left  int
}

func chainFire(a any) {
	c := a.(*chain)
	c.p.log = append(c.p.log, firing{c.p.side.now(), c.seq, c.label})
	if c.left > 0 {
		c.p.scheduleChain(c.delay, c.label+"+", c.left-1)
	}
}

func (p *player) scheduleChain(d Time, label string, left int) {
	c := &chain{p: p, label: label, delay: d, left: left}
	p.side.scheduleFn(d, label, chainFire, c)
	c.seq = p.side.seq()
}

// fifoStats records, from Kernel's internals, which FIFO edge cases an
// input reached.
type fifoStats struct {
	maxLive     int            // most FIFOs live at once
	reopened    [numFIFOs]bool // FIFO i seen live for two different delays
	compactions int            // pushes that compacted a FIFO
	seen        [numFIFOs]bool
	seenDelay   [numFIFOs]Time
}

func (st *fifoStats) observe(k *Kernel) {
	st.maxLive = max(st.maxLive, bits.OnesCount8(k.fifoLive))
	for i := range k.fifos {
		if k.fifoLive&(1<<i) == 0 {
			continue
		}
		if d := k.fifos[i].delay; st.seen[i] && st.seenDelay[i] != d {
			st.reopened[i] = true
		}
		st.seen[i], st.seenDelay[i] = true, k.fifos[i].delay
	}
}

// playKernelOracle decodes data into at most 256 kernel operations and
// plays each on a Kernel and on heapKernel. After every operation the
// callbacks fired, the operation's own result, Pending and ExportState
// must agree.
func playKernelOracle(t testing.TB, data []byte) fifoStats {
	in := fuzzTape(data)
	k := New(1)
	a := &player{side: &kernelSide{k: k}}
	b := &player{side: &heapSide{k: newHeapKernel(1)}}
	var stats fifoStats
	for op := 0; len(in) > 0 && op < 256; op++ {
		kind := in.next() % 10
		var heads [numFIFOs]int
		live := k.fifoLive
		for i := range k.fifos {
			heads[i] = k.fifos[i].head
		}
		var ra, rb any
		switch kind {
		case 0: // a ScheduleFn chain re-arming with one delay
			d, left := in.delay(), int(in.next()%8)
			label := fmt.Sprintf("fn%d", op)
			a.scheduleChain(d, label, left)
			b.scheduleChain(d, label, left)
		case 1, 2: // a closure event; two codes, so the corpus seeds keep theirs
			d := in.delay()
			label := fmt.Sprintf("cl%d", op)
			for _, p := range []*player{a, b} {
				var seq uint64
				p.side.schedule(d, label, func() { p.log = append(p.log, firing{p.side.now(), seq, label}) })
				seq = p.side.seq()
			}
		case 3: // Cancel any handle, live or stale
			sel := int(in.next())<<8 | int(in.next())
			if n := a.side.handles(); n > 0 {
				ra, rb = a.side.cancel(sel%n), b.side.cancel(sel%n)
			}
		case 4: // start a Ticker
			period := Millisecond + in.delay()
			label := fmt.Sprintf("tick%d", op)
			for _, p := range []*player{a, b} {
				p.tickers = append(p.tickers, p.side.ticker(period, label, func() {
					p.log = append(p.log, firing{p.side.now(), p.side.seq(), label})
				}))
			}
		case 5: // stop a Ticker, perhaps again
			sel := int(in.next())
			if n := len(a.tickers); n > 0 {
				a.tickers[sel%n]()
				b.tickers[sel%n]()
			}
		case 6: // Step up to 32 times
			n := 1 + int(in.next()%32)
			var na, nb int
			for i := 0; i < n && a.side.step(); i++ {
				na++
			}
			for i := 0; i < n && b.side.step(); i++ {
				nb++
			}
			ra, rb = na, nb
		case 7: // RunUntil
			deadline := a.side.now() + in.delay()
			ra, rb = a.side.runUntil(deadline), b.side.runUntil(deadline)
		case 8: // add a sampler, or stop one
			sel := in.next()
			if sel%3 == 0 && len(a.samplers) > 0 {
				i := int(sel/3) % len(a.samplers)
				a.samplers[i]()
				b.samplers[i]()
				break
			}
			period := Millisecond + in.delay()
			label := fmt.Sprintf("sample%d", op)
			for _, p := range []*player{a, b} {
				p.samplers = append(p.samplers, p.side.addSampler(period, func(at Time) {
					p.log = append(p.log, firing{at, 0, label})
				}))
			}
		case 9: // a burst of ScheduleFn events with one delay
			n, d := 1+int(in.next()%64), in.delay()
			for i := 0; i < n; i++ {
				label := fmt.Sprintf("burst%d.%d", op, i)
				a.scheduleChain(d, label, 0)
				b.scheduleChain(d, label, 0)
			}
		}
		if kind != 6 && kind != 7 {
			// Nothing popped, so a FIFO whose head moved back compacted.
			for i := range k.fifos {
				if live&k.fifoLive&(1<<i) != 0 && k.fifos[i].head < heads[i] {
					stats.compactions++
				}
			}
		}
		stats.observe(k)
		if ra != rb {
			t.Fatalf("op %d (kind %d): kernel returned %v, heap oracle %v", op, kind, ra, rb)
		}
		if !slices.Equal(a.log, b.log) {
			t.Fatalf("op %d (kind %d): fired\n%v\nheap oracle fired\n%v", op, kind, a.log, b.log)
		}
		a.log, b.log = a.log[:0], b.log[:0]
		if pa, pb := a.side.pending(), b.side.pending(); pa != pb {
			t.Fatalf("op %d (kind %d): %d pending, heap oracle %d", op, kind, pa, pb)
		}
		if sa, sb := a.side.state(), b.side.state(); !reflect.DeepEqual(sa, sb) {
			t.Fatalf("op %d (kind %d): state\n%+v\nheap oracle\n%+v", op, kind, sa, sb)
		}
	}
	return stats
}

// FuzzKernelMatchesHeapOracle plays random interleavings of ScheduleFn
// and Schedule (delays from a recurring set or random),
// Cancel (stale handles included), Ticker start and stop, Step, RunUntil
// and AddSampler on Kernel and on the heap-only reference kernel. The
// fired (at, seq, label) sequence, every operation's result, Pending and
// ExportState must match after every operation.
func FuzzKernelMatchesHeapOracle(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		playKernelOracle(t, data)
	})
}

// readFuzzSeed reads one []byte seed file in the go test fuzz v1
// corpus format.
func readFuzzSeed(t *testing.T, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzKernelMatchesHeapOracle", name))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 2 || lines[0] != "go test fuzz v1" ||
		!strings.HasPrefix(lines[1], "[]byte(") || !strings.HasSuffix(lines[1], ")") {
		t.Fatalf("%s: not a one-value []byte seed", name)
	}
	s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return []byte(s)
}

// TestKernelFuzzSeedsReachFIFOEdges pins what two hand-built seeds of
// FuzzKernelMatchesHeapOracle exercise, so the corpus keeps covering
// the FIFO edge cases if the queue changes: one fills all eight FIFOs,
// drains them and reopens each for another delay; the other pushes a
// FIFO past its compaction point.
func TestKernelFuzzSeedsReachFIFOEdges(t *testing.T) {
	st := playKernelOracle(t, readFuzzSeed(t, "fill-drain-reuse"))
	if st.maxLive != numFIFOs {
		t.Errorf("fill-drain-reuse: at most %d FIFOs live, want %d", st.maxLive, numFIFOs)
	}
	for i, ok := range st.reopened {
		if !ok {
			t.Errorf("fill-drain-reuse: FIFO %d never reopened for another delay", i)
		}
	}
	if st := playKernelOracle(t, readFuzzSeed(t, "compaction")); st.compactions == 0 {
		t.Error("compaction: no FIFO compacted")
	}
}

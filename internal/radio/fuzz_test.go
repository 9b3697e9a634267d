package radio

import (
	"fmt"
	"math"
	"testing"

	"aroma/internal/env"
	"aroma/internal/geo"
	"aroma/internal/sim"
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

// pos returns a point in [-64, 191] m on each axis, so cells with
// negative coordinates are exercised too.
func (in *fuzzTape) pos() geo.Point {
	return geo.Pt(float64(int(in.next())-64), float64(int(in.next())-64))
}

func (in *fuzzTape) channel() int { return MinChannel + int(in.next())%MaxChannel }

// power returns a transmit power in [-20, 10] dBm: hearing ranges of
// about 1 m at the -60 dBm cutoff up to about 215 m at -100 dBm.
func (in *fuzzTape) power() float64 { return -20 + float64(in.next()%31) }

// window returns a fault-window length of 100 µs to 1.6 ms.
func window(b byte) sim.Time { return sim.Time(1+b%16) * 100 * sim.Microsecond }

// opMeasure is the operation code of a link measurement.
const opMeasure = 12

// opCode decodes an operation byte: codes from 240 up measure a link,
// the others select operation code%n. The corpus seeds use codes below
// 100, so they decode as they did before measurements existed.
func opCode(b byte, n int) int {
	if b >= 240 {
		return opMeasure
	}
	return int(b) % n
}

// FuzzMediumMatchesOracle builds a medium from a byte tape — 2 to 24
// radios at bounded positions, the cutoff disabled or at -60 to -100 dBm,
// a 5 to 60 m grid cell — and plays an operation tape on it as kernel
// events: moves within a cell and across cells, attaches, overlapping
// transmissions, jam windows of -10 to +30 dB, partition windows behind
// a fenced abscissa, ambient-noise changes, and RSSI or SNR measurements
// of any pair, hearer or not, at most 128 operations. An arm operation
// instead makes a radio run the next operation inside its next receipt
// callback, in the middle of a delivery round. The indexed hearers and
// carrier sense must match the brute-force oracles after every kernel
// step (checkHearers, checkBusy), and the link-gain memo must hold what
// the dense per-pair table held (memoWatch) after every step and around
// every armed operation. Every receipt's RSSI and every measurement must
// equal, bit for bit, the link budget computed from the environment at
// that instant. At the end the grid may hold no registration beyond the
// covers the radios hold: releasing those must leave it empty.
func FuzzMediumMatchesOracle(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzTape(data)
		n := 2 + int(in.next())%23
		cutoff := math.Inf(-1)
		if c := in.next(); c%2 == 1 {
			cutoff = -60 - float64(c/2%41)
		}
		cell := 5 + float64(in.next()%56)

		k := sim.New(1)
		e := env.New(k, geo.NewFloorPlan(geo.RectAt(-64, -64, 256, 256)))
		m := NewMedium(k, e, WithRxCutoffDBm(cutoff), WithGridCellM(cell))
		w := watchMemo(m)
		var radios []*Radio
		// armed holds, per radio, an operation its next receipt runs.
		armed := map[*Radio]func(){}
		// budget is the src->rx link budget computed from the
		// environment. Shadowing is off, so it touches no cache and
		// draws nothing.
		budget := func(src, rx *Radio) float64 {
			return e.ReceivedPowerDBm(src.txPowerDBm, src.Pos, rx.Pos) - m.faultLossDB(src, rx)
		}
		attach := func(p geo.Point, ch int, dbm float64) {
			r := m.NewRadio(fmt.Sprintf("r%d", len(radios)), p, ch, dbm)
			r.OnReceive = func(rc Receipt) {
				src := rc.Tx.Src
				if want := budget(src, r); math.Float64bits(rc.RSSIdBm) != math.Float64bits(want) {
					t.Fatalf("at %d: radio %d received frame %d from radio %d at %v dBm, link budget %v dBm",
						k.Now(), r.ID, rc.Tx.Seq, src.ID, rc.RSSIdBm, want)
				}
				if op := armed[r]; op != nil {
					delete(armed, r)
					observe := func() {
						if err := w.observe(); err != nil {
							t.Fatalf("at %d, around radio %d's receipt operation: %v", k.Now(), r.ID, err)
						}
					}
					observe()
					op()
					observe()
				}
			}
			radios = append(radios, r)
		}
		for i := 0; i < n; i++ {
			attach(in.pos(), in.channel(), in.power())
		}
		// The oracle is quadratic in the radio count and runs after every
		// step, so the operation tape is capped to keep each input fast.
		const maxOps = 128
		var at sim.Time
		for ops := 0; len(in) > 0 && ops < maxOps; ops++ {
			// The radio is picked when the operation runs, so radios
			// attached by earlier operations can be picked too. Moves,
			// attaches and transmits take two codes each, so the corpus
			// seeds keep the codes they were written with.
			op, sel := opCode(in.next(), 12), int(in.next())
			at += sim.Time(in.next()%8) * 100 * sim.Microsecond
			arm := -1
			if op == 11 { // the next operation runs inside a receipt of radio sel
				arm, op, sel = sel, opCode(in.next(), 11), int(in.next())
			}
			var fn func(r *Radio)
			switch op {
			case 0, 2: // move within the radio's current cell
				fx, fy := float64(in.next())/256, float64(in.next())/256
				fn = func(r *Radio) {
					ox := math.Floor(r.Pos.X/cell) * cell
					oy := math.Floor(r.Pos.Y/cell) * cell
					r.SetPos(geo.Pt(ox+fx*cell, oy+fy*cell))
				}
			case 1, 3: // move anywhere, usually across cells
				p := in.pos()
				fn = func(r *Radio) { r.SetPos(p) }
			case 4, 5:
				p, ch, dbm := in.pos(), in.channel(), in.power()
				fn = func(*Radio) { attach(p, ch, dbm) }
			case 6, 7:
				bits, rate := 200+20*int(in.next()), Rates[int(in.next())%len(Rates)]
				fn = func(r *Radio) {
					if _, err := m.Transmit(r, bits, rate, nil); err != nil {
						t.Fatalf("transmit from radio %d: %v", r.ID, err)
					}
				}
			case 8: // jam window
				db := float64(int(in.next()%41) - 10)
				d := window(in.next())
				fn = func(*Radio) {
					m.AddJamDB(db)
					k.Schedule(d, "fuzz.jamEnd", func() { m.AddJamDB(-db) })
				}
			case 9: // partition window; the fence moves only between windows
				x := float64(int(in.next()) - 64)
				d := window(in.next())
				fn = func(*Radio) {
					if !m.Partitioned() {
						m.SetPartitionFence(x)
					}
					m.AddPartition(1)
					k.Schedule(d, "fuzz.partitionEnd", func() { m.AddPartition(-1) })
				}
			case 10: // ambient noise, from none to far above thermal
				dbm := -1000.0
				if b := in.next(); b%4 != 0 {
					dbm = -130 + float64(b%80)
				}
				fn = func(*Radio) { e.AmbientNoiseDBm = dbm }
			case opMeasure: // any pair: out of range, on disjoint channels, even itself
				dst, snr := int(in.next()), in.next()%2 == 1
				fn = func(r *Radio) {
					d := radios[dst%len(radios)]
					var got float64
					want := budget(r, d)
					if snr {
						_, noise := m.noiseFloor()
						got, want = m.SNRAtDBm(r, d), want-noise
					} else {
						got = m.MeasureRSSI(r, d)
					}
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("at %d: radio %d measured radio %d at %v (snr %v), link budget %v",
							k.Now(), r.ID, d.ID, got, snr, want)
					}
				}
			}
			run := func() { fn(radios[sel%len(radios)]) }
			if arm < 0 {
				k.Schedule(at, "fuzz.op", run)
			} else {
				k.Schedule(at, "fuzz.arm", func() { armed[radios[arm%len(radios)]] = run })
			}
		}
		runChecked(t, k, m, w, 0)

		// Every registration must belong to a cover a radio holds.
		held := m.grid.Watchers()
		for _, r := range radios {
			m.grid.Release(r.candCover)
		}
		if w := m.grid.Watchers(); w != 0 {
			t.Fatalf("%d of %d cover registrations held by no radio", w, held)
		}
	})
}

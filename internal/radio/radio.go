// Package radio simulates the physical wireless layer of the Aroma
// testbed: 2.4 GHz ISM-band transceivers (the paper's "2.4 GHz wireless
// LAN PCMCIA card") on a shared medium.
//
// The model captures the environment- and physical-layer phenomena the
// paper calls out: limited bandwidth, ranging by received signal strength,
// co- and adjacent-channel interference, and congestion collapse as the
// concentration of devices in the band grows (the paper: "the effect of a
// high concentration of these devices needs to be studied").
//
// A Medium owns the set of attached Radios and the in-flight
// Transmissions. Delivery is SINR-based: a frame is decoded by a receiver
// if the signal-to-interference-plus-noise ratio stays above the threshold
// for the transmission's bit rate, where interference sums the power of
// every time-overlapping transmission weighted by spectral channel
// overlap.
//
// # Determinism
//
// The medium never iterates a Go map on the simulation's hot paths.
// Receipts, interference accounting, and energy sums are produced in a
// fixed order — receivers in ascending radio-ID order, in-flight
// transmissions in ascending sequence order — so a run is bit-identical
// given the same kernel seed. A radio's channel, transmit power and
// attachment are fixed when NewRadio creates it, as on the testbed's
// fixed WLAN cards: Channel is read-only, like Pos, and radios join a
// medium but never leave it. Model code that moves a radio must call
// Radio.SetPos (not write Pos directly) so the spatial index stays
// consistent.
//
// # Scaling
//
// The medium is indexed two ways so dense worlds do not pay O(radios) per
// transmission for receivers that cannot possibly hear it:
//
//   - a per-channel partition: only radios whose channel spectrally
//     overlaps the transmitter's (within ChannelOverlap's 5-channel
//     cutoff) are scanned;
//   - an optional spatial grid with a received-power cutoff
//     (WithRxCutoffDBm): radios beyond the conservative maximum range at
//     which the cutoff could still be met are skipped entirely. The
//     grid's cells are a fixed 50 m square.
//
// Candidate sets are cached per radio with cell-granular invalidation,
// so mobile worlds do not pay a global cache wipe per move: a cache
// registers a geo.Cover over the grid cells its hearing-range circle
// covers, and the grid marks the cover dirty when a move crosses a cell
// boundary with exactly one side in those cells; a move inside one cell
// is free. Since radios only join, attach invalidation is the radio
// count: a cache stays valid while the medium holds as many radios as
// when it was built. A rebuild is one ID-ordered pass over the radios of
// the channel window, kept when they lie in the cover's cells. The
// cached set is a cell-conservative superset of the hearing circle;
// delivery, interference, and energy accounting apply the exact range
// check at use time, so the physics is identical to a rebuild per move
// while mobility stays cheap.
//
// # Sender rows
//
// Every radio that sends keeps one hearer row: its candidate set cut to
// a nonzero channel overlap and its exact hearing range, in ID order,
// with each hearer's overlap and, once looked up, its link gain. The row
// is built once per geometry: it stays valid while the medium's geometry
// generation (geoGen) holds. Only SetPos, NewRadio, and jam or partition
// window toggles bump geoGen, and a rebuild keeps every recorded gain
// whose two ends have not moved since. Interference recording, delivery
// and carrier-sense invalidation of all the sender's frames walk that
// row; a static world builds each sender's row once. A row is sized
// exactly to its hearers, about 40 bytes per hearer per sender. While finish
// delivers one of the sender's frames from the row, the row is pinned: a
// rebuild that callbacks trigger meanwhile takes a fresh array, so the
// delivery's receiver set stays frozen.
//
// Delivery decides decoding without a logarithm: it compares the linear
// SINR against a narrow band around the rate's linear threshold and
// takes 10·Log10 only inside the band, so the outcome is exactly the
// dB comparison (see decodes). Receipt.SINRdB computes the dB value
// when asked.
//
// Carrier sense is memoized per radio: Busy reuses the last sensed
// energy until geoGen moves, the ambient noise changes, a frame the
// radio hears starts or ends (Transmit and finish clear the memos of
// the frame's row), or the next frame it hears crosses SensingDelay.
//
// The tests hold the index to that: a brute-force oracle (ref_test.go)
// scans every radio in ID order and keeps those on an
// overlapping channel inside the exact hearing range; after every
// kernel step of the cross-checks and the fuzz target, each radio's
// cached candidates, cut to that same range, must equal it, and each
// radio's carrier-sense memo must equal a recompute bit for bit.
//
// # Allocation discipline
//
// The delivery hot path is allocation-free in steady state: interference
// ledgers are pooled epoch-stamped slices recycled across transmissions;
// sender rows are rebuilt in place unless pinned; pairwise link gains are
// memoized in linear milliwatts (see linkGain), so unmoved pairs
// recompute no transcendentals; the end-of-transmission event rides the
// kernel's pooled ScheduleFn path; and completed transmissions leave the
// active set by Seq binary search. Every cache memoizes exactly the value
// the uncached code would compute, in the same accumulation order, and
// counts the gain-cache hits the uncached code would count, keeping run
// digests and telemetry bit-identical to the unoptimized medium (see
// README "Performance" for the contract).
package radio

import (
	"errors"
	"math"
	"sort"

	"aroma/internal/env"
	"aroma/internal/geo"
	"aroma/internal/sim"
)

// Channel numbering follows 802.11b North America: 1..11, 5 MHz apart,
// 22 MHz wide, so channels closer than 5 apart partially overlap.
const (
	MinChannel = 1
	MaxChannel = 11
)

// SensingDelay is the time after a transmission starts before other
// stations' carrier sense can detect it (propagation plus energy-detect
// integration). Transmissions younger than this are invisible to carrier
// sense (Busy), which creates the CSMA vulnerable window: stations
// that decide to transmit within the same window collide, exactly as in
// real 802.11 DCF.
const SensingDelay = 15 * sim.Microsecond

// Rate is one step of the 802.11b-era rate set.
type Rate struct {
	Mbps      float64
	MinSINRdB float64 // decode threshold
}

// Rates is the available rate set, ascending. The thresholds follow
// typical 802.11b receiver sensitivity ladders.
var Rates = []Rate{
	{1, 4},
	{2, 7},
	{5.5, 9},
	{11, 12},
}

// PickRate returns the fastest rate whose decode threshold is at or below
// the given SINR, or the base rate if none qualifies (the sender will try
// and likely fail, as real rate-fallback schemes do on stale state).
func PickRate(sinrDB float64) Rate {
	best := Rates[0]
	for _, r := range Rates {
		if sinrDB >= r.MinSINRdB {
			best = r
		}
	}
	return best
}

// maxOverlapDistance is the channel separation at and beyond which
// ChannelOverlap is zero; the per-channel index scans only channels
// strictly closer than this.
const maxOverlapDistance = 5

// channelOverlap is ChannelOverlap indexed by channel distance.
var channelOverlap = [maxOverlapDistance]float64{1.0, 0.7272, 0.2714, 0.0375, 0.0054}

// ChannelOverlap returns the fraction of transmit power from a sender on
// channel a that lands in a receiver's filter on channel b. Values follow
// the measured 802.11b spectral-mask overlap ladder.
func ChannelOverlap(a, b int) float64 {
	d := a - b
	if d < 0 {
		d = -d
	}
	if d < maxOverlapDistance {
		return channelOverlap[d]
	}
	return 0
}

// Transmission is one frame in flight on the medium. Transmissions are
// pooled on their Medium: a *Transmission, whether returned by Transmit
// or carried in a Receipt, is valid only until the delivery of that
// frame ends, and the record is then reused for a later frame.
type Transmission struct {
	Seq     uint64
	Src     *Radio
	Bits    int
	Rate    Rate
	Start   sim.Time
	End     sim.Time
	payload any
	// led accumulates, per prospective receiver radio ID, the worst-case
	// interference power observed while this transmission was in the
	// air. Ledgers are pooled on the medium and returned when the
	// transmission finishes.
	led *ledger
}

// ledgerCell is one receiver's interference accumulator. The epoch
// stamp makes reuse O(touched receivers): a recycled ledger bumps its
// epoch instead of zeroing every cell, and a cell whose stamp does not
// match the ledger's current epoch reads as zero.
type ledgerCell struct {
	epoch uint64
	mw    float64
}

// ledger is a dense radio-ID-indexed interference accumulator, pooled
// per Medium so the PHY hot path performs no per-transmission map or
// slice allocation in steady state. rowAt maps a hearer's radio ID to
// its index in the sender's row (markRow); it needs no epoch, since a
// lookup checks the entry it points at.
type ledger struct {
	epoch uint64
	cells []ledgerCell
	rowAt []int32
}

// hearer is one exact hearer of a sender's frames: a radio on a
// spectrally overlapping channel inside the frame's hearing range, with
// its channel overlap. mw and rssi are the link gain, filled by the
// first lookup that needs them (filled) and carried into the next row
// while neither end moves (hearersOf). 40 bytes.
type hearer struct {
	rx       *Radio
	ov       float64
	mw, rssi float64
	id       int32 // rx.ID, kept beside the gains for the hot loops
	filled   bool
}

// offRowGain is one memoized link gain to a receiver outside the
// sender's row, recorded at geoGen gen.
type offRowGain struct {
	gen      uint64
	mw, rssi float64
}

// add accumulates mw of interference at receiver id.
func (l *ledger) add(id int, mw float64) {
	if id >= len(l.cells) {
		grown := make([]ledgerCell, id+id/2+8)
		copy(grown, l.cells)
		l.cells = grown
	}
	c := &l.cells[id]
	if c.epoch != l.epoch {
		c.epoch, c.mw = l.epoch, mw
		return
	}
	c.mw += mw
}

// at returns the accumulated interference at receiver id.
func (l *ledger) at(id int) float64 {
	if id < len(l.cells) {
		if c := &l.cells[id]; c.epoch == l.epoch {
			return c.mw
		}
	}
	return 0
}

// markRow records each hearer's index in row, the sender's row, for
// radio IDs up to maxID.
func (l *ledger) markRow(row []hearer, maxID int) {
	if len(l.rowAt) <= maxID {
		l.rowAt = make([]int32, maxID+1) // every entry is checked on use
	}
	for i := range row {
		l.rowAt[row[i].id] = int32(i)
	}
}

// hearerIn returns the index of receiver id in row as markRow recorded
// it, or -1 if the entry there is not id's.
func (l *ledger) hearerIn(row []hearer, id int) int {
	if id < len(l.rowAt) {
		if i := int(l.rowAt[id]); i < len(row) && int(row[i].id) == id {
			return i
		}
	}
	return -1
}

// Payload returns the opaque payload attached at Transmit time.
func (t *Transmission) Payload() any { return t.payload }

// Airtime returns the duration the transmission occupies the medium.
func (t *Transmission) Airtime() sim.Time { return t.End - t.Start }

// Receipt describes the outcome of a transmission at one receiver.
// Tx is valid only while OnReceive runs: a handler that needs the
// frame's fields or payload later copies them.
type Receipt struct {
	Tx      *Transmission
	RSSIdBm float64
	OK      bool // decoded successfully

	// sinr is the linear signal-to-interference-plus-noise ratio the
	// decode decision used; the tests read it in dB (SINRdB).
	sinr float64
}

// Radio is one transceiver attached to a Medium.
type Radio struct {
	ID   int
	Name string

	// Channel is the radio's channel, fixed at NewRadio. Treat it as
	// read-only, like Pos: the medium's channel partition holds it.
	Channel int

	// txPowerDBm is the transmit power, fixed at NewRadio.
	txPowerDBm float64

	// rangeM is the conservative hearing range of the radio's frames
	// (hearingRange), +Inf without a receive cutoff, and range2 its
	// square, so the hot-path checks compare against squared distances
	// without a square root. Both are fixed at NewRadio.
	rangeM, range2 float64

	// Pos is the radio's current position. Treat it as read-only: moving
	// a radio must go through SetPos so the medium's spatial index stays
	// consistent.
	Pos geo.Point

	// CSThresholdDBm is the carrier-sense energy-detect threshold; the
	// medium reports busy to this radio when total in-band energy at its
	// position exceeds it.
	CSThresholdDBm float64

	// csLo and csHi cache Busy's milliwatt band around the carrier-sense
	// threshold csKey. An unusable threshold gets the band (0, +Inf),
	// which sends every decision to the dBm predicate; csHi is never 0
	// once filled, so 0 marks an empty cache.
	csKey, csLo, csHi float64

	// The carrier-sense memo (energyAtMW), kept beside the threshold
	// band Busy reads next: csSum is the last sensed energy and
	// csLookups the linkGain lookups that sum made. It is valid while
	// csGen equals the medium's geoGen, the ambient noise still equals
	// csAmbient, and the clock is before csUntil, the instant the next
	// frame this radio hears becomes detectable. Transmit and finish
	// zero csGen for every radio in a frame's hearer row; geoGen starts
	// at 1, so zero never matches.
	csGen     uint64
	csSum     float64
	csLookups uint64
	csUntil   sim.Time
	csAmbient float64

	// OnReceive, if non-nil, is invoked for every other radio's
	// transmission that ends with this radio in the sender's hearing
	// range, whether or not it decoded (Receipt.OK tells which). Receipts
	// for one transmission fire in ascending radio-ID order.
	OnReceive func(Receipt)

	medium *Medium

	// cand caches the radios that could hear this one (candidatesFor).
	// The cached slice is immutable: rebuilds allocate a fresh slice.
	// It is valid while the medium holds candRadios radios and — with
	// the spatial cutoff — candCover is valid: the grid dirties it when
	// a move crosses into or out of its cells.
	cand       []*Radio
	candRadios int
	candCover  *geo.Cover

	// linkGen is the geoGen of this radio's last move or fault-window
	// toggle, 0 if it has had none. A link gain recorded at geoGen g is
	// still the one linkGain would compute while both ends' linkGen are
	// at most g.
	linkGen uint64

	// down is the fault-window depth (fault.go): while positive the
	// radio can neither transmit nor receive. A depth, not a bool, so
	// overlapping fault windows nest correctly.
	down int

	// row is this radio's sender row (hearersOf): valid while rowGen
	// equals the medium's geoGen (0 never does). rowPins counts the
	// finish calls delivering from the row; while it is positive a
	// rebuild takes a fresh array instead of overwriting the frozen
	// receiver set.
	row     []hearer
	rowGen  uint64
	rowPins int

	// offRow memoizes, by receiver ID, the link gains from this radio to
	// receivers outside its row that SNRAtDBm and MeasureRSSI asked for.
	// It is emptied at the first lookup after this radio moves
	// (offRowGen, the geoGen of the last emptying, below linkGen).
	offRow    map[int32]offRowGain
	offRowGen uint64
}

// SetPos moves the radio, keeping the medium's spatial index in sync.
// A call with the radio's current position is a no-op: it neither
// touches the grid nor bumps any generation, so movers may re-apply a
// sampled position freely. Without a receive cutoff the candidate sets
// are position-independent, so moves neither touch the grid nor
// invalidate caches. With the cutoff, only a move that crosses a
// grid-cell boundary invalidates caches — and only those whose coverage
// includes exactly one of the source and destination cells (geo.Grid's
// cover invalidation).
func (r *Radio) SetPos(p geo.Point) {
	if p == r.Pos {
		return
	}
	from := r.Pos
	r.Pos = p
	m := r.medium
	m.geoGen++
	r.linkGen = m.geoGen // every memoized link gain to or from r is stale
	if m.cutoffEnabled() {
		m.grid.Move(from, p)
	}
}

func clampChannel(ch int) int {
	if ch < MinChannel {
		return MinChannel
	}
	if ch > MaxChannel {
		return MaxChannel
	}
	return ch
}

// MediumOption configures a Medium at construction time.
type MediumOption func(*Medium)

// WithRxCutoffDBm enables the spatial index: receivers whose best-case
// received power for a transmission would fall below dbm are skipped by
// delivery, interference, and energy accounting. Choose a cutoff at or
// below the noise floor (-100 dBm thermal) so each skipped contribution
// is at most noise-level. Note the error bound is per contribution: with
// k concurrent just-out-of-range interferers the skipped interference
// can sum to k times the cutoff power, so when many simultaneous
// transmissions are expected and decode outcomes near the margin matter,
// lower the cutoff by 10*log10(k) (e.g. -110 dBm for k=10). The default
// (cutoff disabled) is exact.
func WithRxCutoffDBm(dbm float64) MediumOption {
	return func(m *Medium) { m.cutoffDBm = dbm }
}

// gridCellM is the spatial index's cell size in metres. It is a pure
// performance constant: delivery applies the exact range check at use
// time, so the physics is the same at any cell size. 50 m suits the
// dense arenas the cutoff is for.
const gridCellM = 50.0

// Medium is the shared 2.4 GHz band.
type Medium struct {
	kernel *sim.Kernel
	env    *env.Environment

	ordered   []*Radio                 // all radios, ID-ascending
	byChannel [MaxChannel + 1][]*Radio // per-channel partition, ID-ascending
	grid      *geo.Grid                // cover registrations over radio cells

	// active holds in-flight transmissions in ascending Seq order, so
	// energy and interference sums always accumulate identically.
	active []*Transmission

	// ledgerFree recycles interference ledgers across transmissions;
	// ledgerEpoch stamps each tenancy (see ledger). txFree recycles the
	// Transmission records themselves once their delivery has ended.
	ledgerFree  []*ledger
	ledgerEpoch uint64
	txFree      []*Transmission

	// geoGen versions everything a hearer row or a carrier-sense memo
	// depends on besides the set of frames in the air: every actual
	// SetPos, every NewRadio, and every jam or partition window toggle
	// bump it. A move or toggle stamps the new geoGen on the radios'
	// linkGen, so a link gain recorded under the current geoGen is
	// still the one linkGain would return. Starts at 1.
	geoGen uint64

	// noiseMW/noiseDBm memoize the environment noise floor keyed by the
	// ambient component, so per-delivery and per-carrier-sense noise
	// sums skip the dBm→mW transcendentals.
	noiseKey   float64
	noiseMW    float64
	noiseDBm   float64
	noiseValid bool

	nextID int
	seq    uint64

	cutoffDBm float64 // receive cutoff; -Inf disables the spatial skip
	gridCell  float64 // gridCellM, varied only by tests

	// Fault-plane state (fault.go): jamDB is the open jam windows' total
	// extra path loss; partitions is the open partition-window depth with
	// fenceX the fence abscissa; downRadios counts attached radios
	// currently held down. All zero in a fault-free world.
	jamDB      float64
	partitions int
	fenceX     float64
	downRadios int

	// Stats. Sent/Delivered/Lost are part of ExportState (canonical
	// frame accounting); everything below them is observability-only —
	// read by telemetry func instruments, absent from ExportState and
	// every digest input.
	Sent      uint64
	Delivered uint64
	Lost      uint64

	// Collisions counts lost frames that had nonzero co-channel
	// interference on the receiver (a genuine collision rather than
	// range loss); CaptureWins counts decoded frames that overcame
	// nonzero interference (the capture effect).
	Collisions  uint64
	CaptureWins uint64

	// GainHits/GainMisses count pairwise link-gain cache lookups.
	GainHits   uint64
	GainMisses uint64

	// decKey, decLo and decHi cache finish's decode band (decodeBand)
	// for the threshold decKey dB; decHi is never 0 once filled, so 0
	// marks an empty cache.
	decKey, decLo, decHi float64

	// candBuf is buildCandidates' scratch and rowBuf hearersOf's: a
	// rebuild collects into it and copies the result into an exactly
	// sized slice.
	candBuf []*Radio
	rowBuf  []hearer
}

// NewMedium creates an empty medium over the given environment.
func NewMedium(k *sim.Kernel, e *env.Environment, opts ...MediumOption) *Medium {
	m := &Medium{
		kernel:    k,
		env:       e,
		cutoffDBm: math.Inf(-1),
		gridCell:  gridCellM,
		geoGen:    1,
	}
	for _, opt := range opts {
		opt(m)
	}
	m.grid = geo.NewGrid(m.gridCell)
	return m
}

// Kernel returns the owning simulation kernel.
func (m *Medium) Kernel() *sim.Kernel { return m.kernel }

func (m *Medium) cutoffEnabled() bool {
	return !math.IsInf(m.cutoffDBm, -1)
}

// NewRadio creates, attaches and returns a radio. Channel is clamped to
// the legal range. The radio's channel, transmit power and attachment
// are fixed for its life. It joins every candidate set through the
// radio count (candidatesFor), not through the grid.
func (m *Medium) NewRadio(name string, pos geo.Point, channel int, txPowerDBm float64) *Radio {
	m.nextID++
	r := &Radio{
		ID:             m.nextID,
		Name:           name,
		Pos:            pos,
		Channel:        clampChannel(channel),
		txPowerDBm:     txPowerDBm,
		CSThresholdDBm: -82,
		medium:         m,
	}
	r.rangeM = m.hearingRange(r)
	r.range2 = squared(r.rangeM)
	// IDs are monotonic, so appending keeps both indexes ID-ascending.
	m.ordered = append(m.ordered, r)
	m.byChannel[r.Channel] = append(m.byChannel[r.Channel], r)
	m.geoGen++
	return r
}

// Radios returns the number of attached radios.
func (m *Medium) Radios() int { return len(m.ordered) }

// hearingRange returns the conservative maximum distance at which a
// transmission from r can still reach the receive cutoff, or +Inf when
// the cutoff is disabled. NewRadio stores it on the radio (rangeM).
func (m *Medium) hearingRange(r *Radio) float64 {
	if !m.cutoffEnabled() {
		return math.Inf(1)
	}
	return m.env.MaxRangeForCutoff(r.txPowerDBm, m.cutoffDBm)
}

// overlapWindow returns the inclusive channel range spectrally coupled
// to ch (nonzero ChannelOverlap), clamped to the legal band.
func overlapWindow(ch int) (lo, hi int) {
	lo, hi = ch-(maxOverlapDistance-1), ch+(maxOverlapDistance-1)
	if lo < MinChannel {
		lo = MinChannel
	}
	if hi > MaxChannel {
		hi = MaxChannel
	}
	return lo, hi
}

// candidatesFor returns every attached radio that could receive energy
// from src — spectrally overlapping channel and, when the cutoff is
// enabled, within the grid cells covering src's hearing-range circle —
// excluding src itself, in ascending radio-ID order. With the cutoff the
// set is a cell-conservative superset of the hearing circle: use sites
// apply the exact per-transmission range check themselves.
//
// The result is cached on src and revalidated per call: it holds while
// no radio has joined since it was built and, with the cutoff, while its
// cover is valid. Callers must treat the returned slice as immutable;
// rebuilds allocate a fresh one, sized exactly to the set.
func (m *Medium) candidatesFor(src *Radio) []*Radio {
	if src.cand != nil && src.candRadios == len(m.ordered) &&
		(!m.cutoffEnabled() || m.grid.CoverValid(src.candCover, src.Pos)) {
		return src.cand
	}
	src.cand, src.candRadios = m.buildCandidates(src), len(m.ordered)
	return src.cand
}

// buildCandidates collects src's candidate set in one ID-ordered pass
// over the radios of src's channel-overlap window, kept when they lie in
// the cells of src's cover (with the cutoff). The pass walks the global
// ID order when the window holds most of the band, and merges the
// ID-sorted per-channel slices otherwise.
func (m *Medium) buildCandidates(src *Radio) []*Radio {
	lo, hi := overlapWindow(src.Channel)
	var cover *geo.Cover
	if m.cutoffEnabled() {
		cover = src.candCover
		if m.grid.Anchored(cover, src.Pos, src.rangeM) {
			// Same cell box: reuse the registration.
			m.grid.Refresh(cover)
		} else {
			m.grid.Release(cover)
			cover = m.grid.CoverFor(src.Pos, src.rangeM)
		}
		src.candCover = cover
	}
	var heads [2*maxOverlapDistance - 1][]*Radio
	n, total := 0, 0
	for ch := lo; ch <= hi; ch++ {
		total += len(m.byChannel[ch])
	}
	if total*3 >= len(m.ordered)*2 {
		heads[0], n = m.ordered, 1
	} else {
		for ch := lo; ch <= hi; ch++ {
			if s := m.byChannel[ch]; len(s) > 0 {
				heads[n] = s
				n++
			}
		}
	}
	buf := m.candBuf[:0]
	for {
		best := -1
		for i := 0; i < n; i++ {
			if len(heads[i]) > 0 && (best < 0 || heads[i][0].ID < heads[best][0].ID) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		r := heads[best][0]
		heads[best] = heads[best][1:]
		if r == src || r.Channel < lo || r.Channel > hi {
			continue
		}
		if cover != nil && !m.grid.InCover(cover, r.Pos) {
			continue
		}
		buf = append(buf, r)
	}
	m.candBuf = buf
	dst := make([]*Radio, len(buf)) // non-nil even when empty: a valid cache
	copy(dst, buf)
	return dst
}

// distSq returns the squared Euclidean distance between two points; the
// hot paths compare it against squared ranges to avoid the square root.
func distSq(a, b geo.Point) float64 {
	dx, dy := a.X-b.X, a.Y-b.Y
	return dx*dx + dy*dy
}

// squared returns v*v, preserving +Inf (the disabled-cutoff range).
func squared(v float64) float64 { return v * v }

// linkGain returns the received power at rx for a transmission from
// src, in linear milliwatts and dBm, through the link-gain memo. The
// value is exactly DBmToMilliwatts(env.ReceivedPowerDBm(...)) — the memo
// only removes the math.Pow/math.Log10 recomputation for pairs whose
// endpoints have not moved (linkGen), so every downstream sum is
// bit-identical to the unmemoized path. Environment propagation
// parameters (exponent, walls, shadow sigma) are build-time constants of
// a run; deterministic shadow draws happen on first computation exactly
// as they would unmemoized.
//
// Memory: a pair is held where its membership in src's row puts it.
// Whether rx hears src depends only on the two positions, so a pair
// keeps its place while its gain stays fresh. A hearer's gain lives in
// its entry of src's row (rowGain), found by binary search on the ID;
// any other receiver's gain goes to src's offRow map, which SNRAtDBm and
// MeasureRSSI alone fill. The memo is thus bounded by the hearer rows
// plus the off-row pairs actually measured since the sender last moved,
// not by the radio count (see README "Performance").
func (m *Medium) linkGain(src, rx *Radio) (mw, rssi float64) {
	row := m.hearersOf(src)
	if i := sort.Search(len(row), func(i int) bool { return int(row[i].id) >= rx.ID }); i < len(row) && int(row[i].id) == rx.ID {
		return m.rowGain(src, &row[i])
	}
	if src.offRowGen < src.linkGen {
		clear(src.offRow) // src moved: every entry is stale
		src.offRowGen = m.geoGen
	}
	if g, ok := src.offRow[int32(rx.ID)]; ok && rx.linkGen <= g.gen {
		m.GainHits++
		return g.mw, g.rssi
	}
	mw, rssi = m.computeGain(src, rx)
	if src.offRow == nil {
		src.offRow = make(map[int32]offRowGain)
	}
	src.offRow[int32(rx.ID)] = offRowGain{gen: m.geoGen, mw: mw, rssi: rssi}
	return mw, rssi
}

// computeGain computes the src→rx link gain and counts the memo miss.
func (m *Medium) computeGain(src, rx *Radio) (mw, rssi float64) {
	m.GainMisses++
	rssi = m.env.ReceivedPowerDBm(src.txPowerDBm, src.Pos, rx.Pos)
	// Open fault windows (jam, partition) add loss here, in the one gain
	// path every consumer shares; window toggles stamp every linkGen, so
	// a memoized value never outlives the window that shaped it.
	if m.jamDB != 0 || m.partitions > 0 {
		rssi -= m.faultLossDB(src, rx)
	}
	return env.DBmToMilliwatts(rssi), rssi
}

// noiseFloor memoizes the environment's RF noise floor (mW and dBm),
// keyed by the ambient component — the only input that can change.
func (m *Medium) noiseFloor() (mw, dbm float64) {
	if !m.noiseValid || m.noiseKey != m.env.AmbientNoiseDBm {
		m.noiseKey = m.env.AmbientNoiseDBm
		m.noiseDBm = m.env.NoiseFloorDBm()
		m.noiseMW = env.DBmToMilliwatts(m.noiseDBm)
		m.noiseValid = true
	}
	return m.noiseMW, m.noiseDBm
}

// acquireLedger takes a pooled interference ledger for a new
// transmission, stamping a fresh epoch so stale cells read as zero.
func (m *Medium) acquireLedger() *ledger {
	m.ledgerEpoch++
	var l *ledger
	if n := len(m.ledgerFree); n > 0 {
		l = m.ledgerFree[n-1]
		m.ledgerFree = m.ledgerFree[:n-1]
	} else {
		l = &ledger{}
	}
	l.epoch = m.ledgerEpoch
	return l
}

// hearersOf returns src's hearer row: candidatesFor(src) cut to a
// nonzero channel overlap and src's exact hearing range, in ascending ID
// order. The row lives on the sender and is rebuilt only when geoGen
// moved, so the interference walks of every later Transmit, the
// carrier-sense invalidation and the delivery of all the sender's frames
// share one filtered set. A rebuild sizes the row exactly to its hearers
// and overwrites the old array when it fits, unless finish is delivering
// from it (rowPins).
//
// Every gain in the old row was filled while that row was current, at
// geoGen rowGen, so a rebuild carries over, by an ID-ordered merge of
// the two rows, each filled gain whose ends have not moved since: a
// NewRadio, a move elsewhere in the world or a rebuild after a pinned
// delivery keeps the gains a recompute would only count as hits.
func (m *Medium) hearersOf(src *Radio) []hearer {
	if src.rowGen == m.geoGen {
		return src.row
	}
	old, oldGen := src.row, src.rowGen
	if src.linkGen > oldGen {
		old = nil // src moved: no old gain holds
	}
	buf, j := m.rowBuf[:0], 0
	for _, rx := range m.candidatesFor(src) {
		ov := ChannelOverlap(src.Channel, rx.Channel)
		if ov == 0 || distSq(src.Pos, rx.Pos) > src.range2 {
			continue // no spectral overlap, or below the receive cutoff
		}
		h := hearer{rx: rx, id: int32(rx.ID), ov: ov}
		for j < len(old) && old[j].id < h.id {
			j++
		}
		if j < len(old) && old[j].id == h.id && old[j].filled && rx.linkGen <= oldGen {
			h.mw, h.rssi, h.filled = old[j].mw, old[j].rssi, true
		}
		buf = append(buf, h)
	}
	m.rowBuf = buf
	row := src.row
	if src.rowPins > 0 || cap(row) < len(buf) {
		row = make([]hearer, len(buf))
	}
	row = row[:len(buf)]
	copy(row, buf)
	src.row, src.rowGen = row, m.geoGen
	return row
}

// rowGain is linkGain(src, h.rx) for an entry of a hearer row that is
// valid under the current geoGen. The first lookup computes the gain
// and counts the miss; later lookups return the recorded gain and count
// a hit.
func (m *Medium) rowGain(src *Radio, h *hearer) (mw, rssi float64) {
	if h.filled {
		m.GainHits++
		return h.mw, h.rssi
	}
	h.mw, h.rssi = m.computeGain(src, h.rx)
	h.filled = true
	return h.mw, h.rssi
}

// forgetSensing drops the carrier-sense memo of every radio in row: a
// frame they hear has started or ended.
func forgetSensing(row []hearer) {
	for i := range row {
		row[i].rx.csGen = 0
	}
}

// energyAtMW returns the total in-band energy a radio currently senses
// in linear milliwatts: the channel-overlap-weighted sum of all active
// transmissions' received power at the radio's position, plus the noise
// floor. Transmissions are summed in ascending sequence order with
// cached per-pair gains, so the floating-point result is bit-identical
// across runs and to the uncached computation.
//
// The sum is memoized per radio (Radio.csGen). Nothing it reads can
// change while the memo holds: moves, attaches and fault windows bump
// geoGen; a frame the radio hears starting or ending clears the memo
// through the frame's hearer row; the ambient noise is compared; and
// the memo expires when the next heard frame crosses SensingDelay. A hit counts the gain-cache hits
// its lookups would have counted, so the counters match a recompute.
func (m *Medium) energyAtMW(r *Radio) float64 {
	now := m.kernel.Now()
	if r.csGen == m.geoGen && now < r.csUntil && r.csAmbient == m.env.AmbientNoiseDBm {
		m.GainHits += r.csLookups
		return r.csSum
	}
	total, lookups, until := m.senseEnergyMW(r, now)
	r.csGen, r.csSum, r.csLookups, r.csUntil = m.geoGen, total, lookups, until
	r.csAmbient = m.env.AmbientNoiseDBm
	return total
}

// senseEnergyMW computes energyAtMW's sum at now without the memo. It
// also returns the number of linkGain lookups made and the earliest
// instant a frame r hears becomes detectable (or the end of time).
func (m *Medium) senseEnergyMW(r *Radio, now sim.Time) (total float64, lookups uint64, until sim.Time) {
	total, _ = m.noiseFloor()
	until = math.MaxInt64
	for _, tx := range m.active {
		src := tx.Src
		if src.ID == r.ID {
			continue
		}
		ov := ChannelOverlap(src.Channel, r.Channel)
		if ov == 0 {
			continue
		}
		if distSq(src.Pos, r.Pos) > src.range2 {
			continue // below the receive cutoff by construction
		}
		if at := tx.Start + SensingDelay; now < at {
			until = min(until, at)
			continue // within the vulnerable window: not yet detectable
		}
		// The same overlap and range test puts r in src's row. The
		// frame's ledger recorded r's place in the row at Transmit; while
		// the row is current and that entry is still r's, it is the gain.
		// Otherwise linkGain rebuilds the row and searches it.
		var mw float64
		if i := tx.led.hearerIn(src.row, r.ID); i >= 0 && src.rowGen == m.geoGen {
			mw, _ = m.rowGain(src, &src.row[i])
		} else {
			mw, _ = m.linkGain(src, r)
		}
		lookups++
		total += mw * ov
	}
	return total, lookups, until
}

// thresholdBand is the relative half-width of the linear band around a
// dB threshold inside which Busy and decodes decide in dB.
const thresholdBand = 1e-9

// linearBand returns the band t·(1±thresholdBand) around
// t = 10^(db/10), or (0, +Inf) when t is not a finite normal float (db
// ±Inf, NaN, or far below -3000), which sends every decision to the dB
// predicate.
func linearBand(db float64) (lo, hi float64) {
	if t := env.DBmToMilliwatts(db); t >= 0x1p-1022 && t <= math.MaxFloat64 {
		return t * (1 - thresholdBand), t * (1 + thresholdBand)
	}
	return 0, math.Inf(1)
}

// Busy reports whether the radio's carrier sense sees the medium busy:
// whether the sensed energy e, in dBm, exceeds CSThresholdDBm. The MAC
// asks once per backoff slot, so Busy compares e in milliwatts against
// the threshold t = DBmToMilliwatts(CSThresholdDBm) instead of taking a
// logarithm, and the decision is still exactly MilliwattsToDBm(e) >
// CSThresholdDBm. For any normal t, its relative error (one division
// and one Pow) is below 1e-12, about 4e-12 dB; 10·Log10(e) is off by a
// few ulps of a value under 3100 in magnitude, below 1e-11 dB. Both are
// two orders of magnitude inside the band t·(1±1e-9), which is ±4.3e-9
// dB wide, so an e above the band is busy in dBm too and a positive e
// below it is idle in dBm too. Inside the band, for e <= 0 (which
// MilliwattsToDBm maps to -1000 dBm), and for thresholds whose t is not
// a finite normal float (±Inf, NaN, far below -3000 dBm), Busy
// evaluates the dBm predicate itself. The band is cached per radio and
// rebuilt when the threshold changes.
func (m *Medium) Busy(r *Radio) bool { return r.senses(m.energyAtMW(r)) }

// senses reports whether sensed energy e, in milliwatts, is above the
// radio's carrier-sense threshold (see Busy).
func (r *Radio) senses(e float64) bool {
	if r.csHi == 0 || r.csKey != r.CSThresholdDBm {
		r.csKey = r.CSThresholdDBm
		r.csLo, r.csHi = linearBand(r.CSThresholdDBm)
	}
	switch {
	case e > r.csHi:
		return true
	case e > 0 && e < r.csLo:
		return false
	}
	return env.MilliwattsToDBm(e) > r.CSThresholdDBm
}

// decodeBand returns linearBand(minSINRdB), cached on the medium for the
// last threshold asked.
func (m *Medium) decodeBand(minSINRdB float64) (lo, hi float64) {
	if m.decHi == 0 || m.decKey != minSINRdB {
		m.decKey = minSINRdB
		m.decLo, m.decHi = linearBand(minSINRdB)
	}
	return m.decLo, m.decHi
}

// decodes reports whether a frame received at the linear SINR ratio
// decodes at the threshold minSINRdB, given (lo, hi) =
// linearBand(minSINRdB). The answer is exactly 10·Log10(ratio) >=
// minSINRdB, by the argument Busy makes for carrier sense: the relative
// error of the linear threshold and the absolute error of 10·Log10 are
// both orders of magnitude inside the band, so a ratio above it decodes
// in dB too and a positive ratio below it fails in dB too. Inside the
// band, for ratios that are 0 or NaN, and for unusable thresholds,
// decodes evaluates the dB predicate itself.
func decodes(ratio, minSINRdB, lo, hi float64) bool {
	switch {
	case ratio > hi:
		return true
	case ratio > 0 && ratio < lo:
		return false
	}
	return 10*math.Log10(ratio) >= minSINRdB
}

// SNRAtDBm returns the signal-to-noise ratio (no interference) a receiver
// would see for a transmission from src, used for rate selection.
func (m *Medium) SNRAtDBm(src, dst *Radio) float64 {
	_, rx := m.linkGain(src, dst)
	_, noiseDBm := m.noiseFloor()
	return rx - noiseDBm
}

// MeasureRSSI returns the received power at dst for a probe from src —
// the primitive on which RSSI ranging is built.
func (m *Medium) MeasureRSSI(src, dst *Radio) float64 {
	_, rssi := m.linkGain(src, dst)
	return rssi
}

// ErrZeroBits is returned by Transmit for an empty frame.
var ErrZeroBits = errors.New("radio: transmission must carry at least one bit")

// Transmit puts a frame on the air from r. The frame occupies the medium
// for bits/rate seconds; when it ends, the OnReceive of every other
// radio in r's hearing range fires with a Receipt, in ascending radio-ID
// order. The payload is carried opaquely; it is dropped when the
// delivery ends. The returned Transmission is valid only until then:
// the medium recycles it for a later frame.
func (m *Medium) Transmit(r *Radio, bits int, rate Rate, payload any) (*Transmission, error) {
	if bits <= 0 {
		return nil, ErrZeroBits
	}
	if r.down > 0 {
		return nil, ErrRadioDown
	}
	airSeconds := float64(bits) / (rate.Mbps * 1e6)
	now := m.kernel.Now()
	m.seq++
	var tx *Transmission
	if n := len(m.txFree); n > 0 {
		tx = m.txFree[n-1]
		m.txFree = m.txFree[:n-1]
	} else {
		tx = &Transmission{}
	}
	*tx = Transmission{
		Seq:     m.seq,
		Src:     r,
		Bits:    bits,
		Rate:    rate,
		Start:   now,
		End:     now + sim.Time(airSeconds*float64(sim.Second)),
		payload: payload,
		led:     m.acquireLedger(),
	}
	// The frame's hearers sense it from now on: drop their carrier-sense
	// memos, and mark each one's place in the sender's row.
	row := m.hearersOf(r)
	forgetSensing(row)
	tx.led.markRow(row, m.nextID)
	// Record mutual interference with all currently active transmissions,
	// oldest first.
	for _, other := range m.active {
		m.recordInterference(tx, other)
		m.recordInterference(other, tx)
	}
	m.active = append(m.active, tx) // Seq is monotonic: stays sorted
	m.Sent++
	m.kernel.ScheduleFn(tx.End-now, "radio.txEnd", finishTransmission, tx)
	return tx, nil
}

// finishTransmission is the ScheduleFn trampoline for the
// end-of-transmission event; the medium is recovered from the sender.
func finishTransmission(a any) {
	tx := a.(*Transmission)
	tx.Src.medium.finish(tx)
}

// recordInterference adds other's power into victim's per-receiver
// interference ledger, walking other's hearer row (the radios that hear
// the interfering emission) in ascending ID order.
func (m *Medium) recordInterference(victim, other *Transmission) {
	row := m.hearersOf(other.Src)
	for i := range row {
		h := &row[i]
		if h.rx == victim.Src {
			continue
		}
		mw, _ := m.rowGain(other.Src, h)
		victim.led.add(int(h.id), mw*h.ov)
	}
}

// finish delivers a completed transmission to every radio that could hear
// it, in ascending radio-ID order.
func (m *Medium) finish(tx *Transmission) {
	// active is Seq-ascending and Seq is monotonic, so the completed
	// transmission is found by binary search: overlapping transmissions
	// completing out of order (shorter frames started later) cost
	// O(log active), not a linear scan.
	if i := sort.Search(len(m.active), func(i int) bool { return m.active[i].Seq >= tx.Seq }); i < len(m.active) && m.active[i] == tx {
		m.active = append(m.active[:i], m.active[i+1:]...)
	}
	noiseMW, _ := m.noiseFloor()
	src := tx.Src
	// The sender's hearer row is this delivery round's receiver set,
	// frozen before any callback runs: OnReceive callbacks may transmit,
	// move or attach radios without changing who is delivered to. The
	// pin makes a rebuild during the round take a fresh array, so nothing
	// overwrites the row until the round ends. Its recorded gains hold
	// only while geoGen does; after a callback changed the geometry, the
	// rest of the round recomputes them as the medium now stands (the
	// overlaps hold for life: channels are fixed). The decode band is
	// fetched once per round.
	receivers := m.hearersOf(src)
	forgetSensing(receivers)
	src.rowPins++
	gen := m.geoGen
	minSINR := tx.Rate.MinSINRdB
	lo, hi := m.decodeBand(minSINR)
	for i := range receivers {
		h := &receivers[i]
		rx := h.rx
		if rx.OnReceive == nil || rx.down > 0 {
			continue
		}
		var mw, rssi float64
		if m.geoGen == gen {
			mw, rssi = m.rowGain(src, h)
		} else {
			mw, rssi = m.linkGain(src, rx)
		}
		sigMW := mw * h.ov
		intMW := tx.led.at(rx.ID)
		sinr := sigMW / (noiseMW + intMW)
		ok := decodes(sinr, minSINR, lo, hi)
		// Delivered/Lost are canonical frame accounting; an outcome
		// with nonzero interference is also a capture win or a
		// collision (observability only).
		if ok {
			m.Delivered++
			if intMW > 0 {
				m.CaptureWins++
			}
		} else {
			m.Lost++
			if intMW > 0 {
				m.Collisions++
			}
		}
		rx.OnReceive(Receipt{Tx: tx, RSSIdBm: rssi, OK: ok, sinr: sinr})
	}
	src.rowPins--
	// The ledger is no longer needed: recordInterference only targets
	// active transmissions, and delivery above has consumed every cell.
	// Nothing holds the record past its delivery, so it is recycled too,
	// without pinning its payload or sender.
	m.ledgerFree = append(m.ledgerFree, tx.led)
	tx.led, tx.payload, tx.Src = nil, nil, nil
	m.txFree = append(m.txFree, tx)
}

// ActiveTransmissions returns the number of frames currently in the air.
func (m *Medium) ActiveTransmissions() int { return len(m.active) }

// EstimateDistance performs RSSI ranging from src to dst: it measures the
// received power and inverts the free-space-with-exponent model. Walls and
// shadowing corrupt the estimate, reproducing experiment C8.
func (m *Medium) EstimateDistance(src, dst *Radio) float64 {
	rssi := m.MeasureRSSI(src, dst)
	return m.env.EstimateDistanceFromRSSI(src.txPowerDBm, rssi)
}

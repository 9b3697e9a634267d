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
// given the same kernel seed. Model code that moves a radio must call
// Radio.SetPos (not write Pos directly) so the spatial index stays
// consistent; likewise SetChannel for channel hops.
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
//     which the cutoff could still be met are skipped entirely.
//
// Candidate sets are cached per radio with cell-granular invalidation,
// so mobile worlds do not pay a global cache wipe per move: a cache
// records the grid cells its hearing-range circle covers (a geo.Cover)
// and revalidates against their per-cell generations. Only a move that
// crosses a cell boundary — or an attach, detach, or retune within the
// cache's coverage — forces a rebuild; a move inside one cell is free.
// Retunes invalidate only caches whose 5-channel overlap window touches
// the old or new channel (per-channel generation counters), not the
// whole world. The cached set is a cell-conservative superset of the
// hearing circle; delivery, interference, and energy accounting apply
// the exact range check at use time, so the physics is identical to a
// rebuild per move while mobility stays cheap.
//
// The tests hold the index to that: a brute-force oracle (ref_test.go)
// scans every attached radio in ID order and keeps those on an
// overlapping channel inside the exact hearing range; after every
// kernel step of the cross-checks and the fuzz target, each radio's
// cached candidates, cut to that same range, must equal it.
//
// # Allocation discipline
//
// The delivery hot path is allocation-free in steady state: interference
// ledgers are pooled epoch-stamped slices recycled across transmissions,
// pairwise link gains are cached in linear milliwatts (revalidated by
// per-radio position generations, so unmoved pairs recompute no
// transcendentals), the end-of-transmission event rides the kernel's
// pooled ScheduleFn path, and completed transmissions leave the active
// set by Seq binary search. Every cache memoizes exactly the value the
// uncached code would compute, in the same accumulation order, keeping
// run digests bit-identical to the unoptimized medium (see README
// "Performance" for the contract).
package radio

import (
	"errors"
	"fmt"
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

// Transmission is one frame in flight on the medium.
type Transmission struct {
	Seq     uint64
	Src     *Radio
	Bits    int
	Rate    Rate
	Start   sim.Time
	End     sim.Time
	payload any
	// range2 is the squared conservative hearing range for this
	// transmission when the medium has a receive cutoff; +Inf otherwise.
	// Squared so the hot-path checks compare against squared distances
	// without a square root.
	range2 float64
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
// slice allocation in steady state.
type ledger struct {
	epoch uint64
	cells []ledgerCell
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

// Payload returns the opaque payload attached at Transmit time.
func (t *Transmission) Payload() any { return t.payload }

// Airtime returns the duration the transmission occupies the medium.
func (t *Transmission) Airtime() sim.Time { return t.End - t.Start }

// Receipt describes the outcome of a transmission at one receiver.
type Receipt struct {
	Tx      *Transmission
	RSSIdBm float64
	SINRdB  float64
	OK      bool // decoded successfully
}

// Radio is one transceiver attached to a Medium.
type Radio struct {
	ID         int
	Name       string
	Channel    int
	TxPowerDBm float64

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

	// OnReceive, if non-nil, is invoked for every transmission that ends
	// while this radio is attached and not the sender, whether or not it
	// decoded (Receipt.OK tells which). Sender excluded. Receipts for one
	// transmission fire in ascending radio-ID order.
	OnReceive func(Receipt)

	medium *Medium

	// cand caches the radios that could hear this one (candidatesFor).
	// The cached slice is immutable: rebuilds allocate a fresh slice, so
	// in-flight iterations over an old snapshot stay safe. Validity
	// (candValid) compares the channel-window generation sum
	// (candChanSum, for candChannel's overlap window) and — with the
	// spatial cutoff — checks candCover, whose dirty flag the grid sets
	// when a covered cell's membership changes. candPower guards the
	// hearing range.
	cand        []*Radio
	candPower   float64
	candChannel int
	candChanSum uint64
	candCover   *geo.Cover

	// linkGen versions this radio's position for the pairwise gain
	// cache: every actual position change bumps it, so cached link
	// gains involving this radio (as transmitter or receiver) are
	// revalidated with two integer compares. Starts at 1 so the
	// zero-valued cache entry is never considered fresh.
	linkGen uint64

	// gainTo caches, per receiver radio ID, the received power of this
	// radio's signal in both dBm and linear milliwatts, so the
	// per-pair delivery, interference, and energy loops do zero
	// math.Pow/math.Log10 for unmoved pairs. Entries are revalidated
	// against both ends' linkGen and this radio's TxPowerDBm.
	gainTo []pairGain

	// down is the fault-window depth (fault.go): while positive the
	// radio can neither transmit nor receive. A depth, not a bool, so
	// overlapping fault windows nest correctly.
	down int
}

// pairGain is one directed cached link budget: the received power at
// one receiver for this transmitter's current position, power, and the
// receiver's current position. Fading (wall loss, frozen shadow draws)
// is position-determined, so the pair of linkGens plus the transmit
// power fully key the value.
type pairGain struct {
	srcGen, rxGen uint64
	srcPower      float64
	mw            float64 // received power, linear milliwatts
	rssi          float64 // received power, dBm
}

// SetPos moves the radio, keeping the medium's spatial index in sync.
// A call with the radio's current position is a no-op: it neither
// touches the grid nor bumps any generation, so movers may re-apply a
// sampled position freely. Detached radios just update their position.
// Without a receive cutoff the candidate sets are position-independent,
// so moves neither touch the grid nor invalidate caches. With the
// cutoff, only a move that crosses a grid-cell boundary invalidates
// caches — and only those whose coverage includes the source or
// destination cell (geo.Grid's per-cell generations).
func (r *Radio) SetPos(p geo.Point) {
	if p == r.Pos {
		return
	}
	r.Pos = p
	r.linkGen++ // all cached link gains to and from this radio are stale
	if m := r.medium; m != nil && m.cutoffEnabled() && m.attached(r) {
		m.grid.Move(r.ID, p)
	}
}

// SetChannel retunes the radio, clamping to the legal range and keeping
// the medium's channel partition in sync. A retune invalidates only the
// candidate caches whose 5-channel overlap window touches the old or new
// channel; radios spectrally out of reach keep their caches.
func (r *Radio) SetChannel(ch int) {
	ch = clampChannel(ch)
	if ch == r.Channel {
		return
	}
	if m := r.medium; m != nil && m.attached(r) {
		m.channelRemove(r)
		old := r.Channel
		r.Channel = ch
		m.channelInsert(r)
		m.chanGen[old]++
		m.chanGen[ch]++
		return
	}
	r.Channel = ch
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

// WithGridCellM sets the spatial-index cell size in metres (default
// geo.DefaultGridCell). Smaller cells tighten range queries in very dense
// worlds at a little extra bookkeeping per move.
func WithGridCellM(meters float64) MediumOption {
	return func(m *Medium) {
		if meters > 0 {
			m.gridCell = meters
		}
	}
}

// Medium is the shared 2.4 GHz band.
type Medium struct {
	kernel *sim.Kernel
	env    *env.Environment

	// byID is a dense ID-indexed attachment table (IDs are assigned
	// densely from 1 and never reused): byID[r.ID] == r iff r is
	// attached. It replaces the former map so attachment checks on the
	// hot path are a bounds check plus one compare, with no hashing.
	byID      []*Radio
	ordered   []*Radio                 // all attached radios, ID-ascending
	byChannel [MaxChannel + 1][]*Radio // per-channel partition, ID-ascending
	grid      *geo.Grid                // spatial index over radio positions

	// active holds in-flight transmissions in ascending Seq order, so
	// energy and interference sums always accumulate identically.
	active []*Transmission

	// ledgerFree recycles interference ledgers across transmissions;
	// ledgerEpoch stamps each tenancy (see ledger).
	ledgerFree  []*ledger
	ledgerEpoch uint64

	// rxScratch is the reusable in-range receiver buffer for finish;
	// deliveries never nest, so one buffer serves every transmission.
	rxScratch []*Radio

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
	gridCell  float64

	// chanGen counts, per channel, the attaches, detaches, and retunes
	// touching that channel. A candidate cache built for channel c is
	// invalidated by a change to the generation sum over c's 5-channel
	// overlap window — and only by that, so a retune on the far side of
	// the band leaves it untouched.
	chanGen [MaxChannel + 1]uint64

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
}

// NewMedium creates an empty medium over the given environment.
func NewMedium(k *sim.Kernel, e *env.Environment, opts ...MediumOption) *Medium {
	m := &Medium{
		kernel:    k,
		env:       e,
		cutoffDBm: math.Inf(-1),
		gridCell:  geo.DefaultGridCell,
	}
	for _, opt := range opts {
		opt(m)
	}
	m.grid = geo.NewGrid(m.gridCell)
	return m
}

// Kernel returns the owning simulation kernel.
func (m *Medium) Kernel() *sim.Kernel { return m.kernel }

// Env returns the propagation environment.
func (m *Medium) Env() *env.Environment { return m.env }

func (m *Medium) cutoffEnabled() bool {
	return !math.IsInf(m.cutoffDBm, -1)
}

func (m *Medium) attached(r *Radio) bool {
	return r.ID < len(m.byID) && m.byID[r.ID] == r
}

// NewRadio creates, attaches and returns a radio. Channel is clamped to
// the legal range.
func (m *Medium) NewRadio(name string, pos geo.Point, channel int, txPowerDBm float64) *Radio {
	m.nextID++
	r := &Radio{
		ID:             m.nextID,
		Name:           name,
		Pos:            pos,
		Channel:        clampChannel(channel),
		TxPowerDBm:     txPowerDBm,
		CSThresholdDBm: -82,
		medium:         m,
		linkGen:        1,
	}
	for len(m.byID) <= r.ID {
		m.byID = append(m.byID, nil)
	}
	m.byID[r.ID] = r
	m.ordered = append(m.ordered, r) // IDs are monotonic: stays sorted
	m.channelInsert(r)
	m.grid.Insert(r.ID, pos) // bumps the destination cell's generation
	m.chanGen[r.Channel]++
	return r
}

func (m *Medium) channelInsert(r *Radio) {
	ids := m.byChannel[r.Channel]
	i := sort.Search(len(ids), func(i int) bool { return ids[i].ID >= r.ID })
	ids = append(ids, nil)
	copy(ids[i+1:], ids[i:])
	ids[i] = r
	m.byChannel[r.Channel] = ids
}

func (m *Medium) channelRemove(r *Radio) {
	ids := m.byChannel[r.Channel]
	i := sort.Search(len(ids), func(i int) bool { return ids[i].ID >= r.ID })
	if i < len(ids) && ids[i] == r {
		m.byChannel[r.Channel] = append(ids[:i], ids[i+1:]...)
	}
}

// Detach removes a radio from the medium; in-flight transmissions to it
// are not delivered.
func (m *Medium) Detach(r *Radio) {
	if !m.attached(r) {
		return
	}
	m.byID[r.ID] = nil
	i := sort.Search(len(m.ordered), func(i int) bool { return m.ordered[i].ID >= r.ID })
	if i < len(m.ordered) && m.ordered[i] == r {
		m.ordered = append(m.ordered[:i], m.ordered[i+1:]...)
	}
	m.channelRemove(r)
	m.grid.Remove(r.ID) // bumps the vacated cell's generation
	m.grid.Release(r.candCover)
	r.cand, r.candCover = nil, nil
	m.chanGen[r.Channel]++
}

// Radios returns the number of attached radios.
func (m *Medium) Radios() int { return len(m.ordered) }

// hearingRange returns the conservative maximum distance at which a
// transmission from r can still reach the receive cutoff, or +Inf when
// the cutoff is disabled.
func (m *Medium) hearingRange(r *Radio) float64 {
	if !m.cutoffEnabled() {
		return math.Inf(1)
	}
	return m.env.MaxRangeForCutoff(r.TxPowerDBm, m.cutoffDBm)
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

// chanGenSum sums the per-channel generations over [lo, hi]. Generations
// only grow, so the sum changes iff any channel in the window changed.
func (m *Medium) chanGenSum(lo, hi int) uint64 {
	var s uint64
	for ch := lo; ch <= hi; ch++ {
		s += m.chanGen[ch]
	}
	return s
}

// candidatesFor returns every attached radio that could receive energy
// from src — spectrally overlapping channel and, when the cutoff is
// enabled, within the grid cells covering src's hearing-range circle —
// excluding src itself, in ascending radio-ID order. With the cutoff the
// set is a cell-conservative superset of the hearing circle: use sites
// apply the exact per-transmission range check themselves.
//
// The result is cached on src and revalidated per call (candValid);
// rebuilds happen only when a relevant slice of the topology changed.
// Callers must treat the returned slice as immutable; it is safe to keep
// iterating across a topology change mid-delivery, because rebuilds
// allocate a fresh slice.
func (m *Medium) candidatesFor(src *Radio) []*Radio {
	if src.cand != nil && src.candPower == src.TxPowerDBm && m.candValid(src) {
		return src.cand
	}
	out := m.buildCandidates(src)
	src.cand, src.candPower = out, src.TxPowerDBm
	return out
}

// candValid reports whether src's cached candidate set still describes
// the medium.
func (m *Medium) candValid(src *Radio) bool {
	if src.Channel != src.candChannel {
		return false
	}
	lo, hi := overlapWindow(src.Channel)
	if src.candChanSum != m.chanGenSum(lo, hi) {
		return false
	}
	if !m.cutoffEnabled() {
		return true
	}
	return m.grid.CoverValid(src.candCover, src.Pos)
}

func (m *Medium) buildCandidates(src *Radio) []*Radio {
	dst := make([]*Radio, 0, 16)
	src.candChannel = src.Channel
	lo, hi := overlapWindow(src.Channel)
	src.candChanSum = m.chanGenSum(lo, hi)
	if m.cutoffEnabled() {
		rangeM := m.hearingRange(src)
		collect := func(id int, _ geo.Point) {
			r := m.byID[id]
			if r == src || r.Channel < lo || r.Channel > hi {
				return
			}
			dst = append(dst, r)
		}
		cover := src.candCover
		if m.grid.Anchored(cover, src.Pos, rangeM) {
			// Same cell box: reuse the registration, just re-walk.
			m.grid.Refresh(cover)
		} else {
			m.grid.Release(cover)
			cover = m.grid.CoverFor(src.Pos, rangeM)
			src.candCover = cover
		}
		m.grid.VisitCover(cover, collect)
		if !m.attached(src) {
			// A detached radio can rebuild once more while its last
			// transmission is in flight; don't leave a registered
			// cover behind that nothing would ever release.
			m.grid.Release(cover)
			src.candCover = nil
		}
		// The grid visits cell-major; restore the global ID order.
		sort.Sort(byIDOrder(dst))
		return dst
	}
	total := 0
	for ch := lo; ch <= hi; ch++ {
		total += len(m.byChannel[ch])
	}
	if total*3 >= len(m.ordered)*2 {
		// The overlap window holds most of the band: a filtered scan of
		// the global ID order beats a multi-way merge.
		for _, r := range m.ordered {
			if r != src && r.Channel >= lo && r.Channel <= hi {
				dst = append(dst, r)
			}
		}
		return dst
	}
	// Sparse window: merge the (already ID-sorted) per-channel slices,
	// skipping src.
	var heads [2*maxOverlapDistance - 1][]*Radio
	n := 0
	for ch := lo; ch <= hi; ch++ {
		if s := m.byChannel[ch]; len(s) > 0 {
			heads[n] = s
			n++
		}
	}
	for {
		best := -1
		for i := 0; i < n; i++ {
			if len(heads[i]) == 0 {
				continue
			}
			if best < 0 || heads[i][0].ID < heads[best][0].ID {
				best = i
			}
		}
		if best < 0 {
			return dst
		}
		if r := heads[best][0]; r != src {
			dst = append(dst, r)
		}
		heads[best] = heads[best][1:]
	}
}

// distSq returns the squared Euclidean distance between two points; the
// hot paths compare it against squared ranges to avoid the square root.
func distSq(a, b geo.Point) float64 {
	dx, dy := a.X-b.X, a.Y-b.Y
	return dx*dx + dy*dy
}

// squared returns v*v, preserving +Inf (the disabled-cutoff range).
func squared(v float64) float64 { return v * v }

// byIDOrder sorts radios by ascending ID.
type byIDOrder []*Radio

func (s byIDOrder) Len() int           { return len(s) }
func (s byIDOrder) Less(i, j int) bool { return s[i].ID < s[j].ID }
func (s byIDOrder) Swap(i, j int)      { s[i], s[j] = s[j], s[i] }

// linkGain returns the received power at rx for a transmission from
// src, in linear milliwatts and dBm, through the per-pair cache. The
// value is exactly DBmToMilliwatts(env.ReceivedPowerDBm(...)) — the
// cache only removes the math.Pow/math.Log10 recomputation for pairs
// whose endpoints have not moved (linkGen) and whose transmit power is
// unchanged, so every downstream sum is bit-identical to the uncached
// path. Environment propagation parameters (exponent, walls, shadow
// sigma) are build-time constants of a run; deterministic shadow draws
// happen on first computation exactly as they would uncached.
//
// Memory: each transmitting radio's row is sized to the full radio
// count on first use, so the cache is O(radios²) worst case — 40 bytes
// per directed pair, ~40 MB at 1000 radios (see README "Performance").
// The spatial cutoff keeps the *computed* pair set local, but the row
// itself is dense for O(1) indexing.
func (m *Medium) linkGain(src, rx *Radio) (mw, rssi float64) {
	if rx.ID >= len(src.gainTo) {
		grown := make([]pairGain, m.nextID+1)
		copy(grown, src.gainTo)
		src.gainTo = grown
	}
	g := &src.gainTo[rx.ID]
	if g.srcGen == src.linkGen && g.rxGen == rx.linkGen && g.srcPower == src.TxPowerDBm {
		m.GainHits++
		return g.mw, g.rssi
	}
	m.GainMisses++
	rssi = m.env.ReceivedPowerDBm(src.TxPowerDBm, src.Pos, rx.Pos)
	// Open fault windows (jam, partition) add loss here, in the one gain
	// path every consumer shares; window toggles bump every linkGen, so
	// a cached value never outlives the window that shaped it.
	if m.jamDB != 0 || m.partitions > 0 {
		rssi -= m.faultLossDB(src, rx)
	}
	mw = env.DBmToMilliwatts(rssi)
	*g = pairGain{srcGen: src.linkGen, rxGen: rx.linkGen, srcPower: src.TxPowerDBm, mw: mw, rssi: rssi}
	return mw, rssi
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

// energyAtMW returns the total in-band energy a radio currently senses
// in linear milliwatts: the channel-overlap-weighted sum of all active
// transmissions' received power at the radio's position, plus the noise
// floor. Transmissions are summed in ascending sequence order with
// cached per-pair gains, so the floating-point result is bit-identical
// across runs and to the uncached computation.
func (m *Medium) energyAtMW(r *Radio) float64 {
	total, _ := m.noiseFloor()
	now := m.kernel.Now()
	for _, tx := range m.active {
		if tx.Src.ID == r.ID {
			continue
		}
		if now-tx.Start < SensingDelay {
			continue // within the vulnerable window: not yet detectable
		}
		ov := ChannelOverlap(tx.Src.Channel, r.Channel)
		if ov == 0 {
			continue
		}
		if distSq(tx.Src.Pos, r.Pos) > tx.range2 {
			continue // below the receive cutoff by construction
		}
		mw, _ := m.linkGain(tx.Src, r)
		total += mw * ov
	}
	return total
}

// csBand is the relative half-width of the milliwatt band around the
// carrier-sense threshold inside which Busy decides in dBm.
const csBand = 1e-9

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
		r.csKey, r.csLo, r.csHi = r.CSThresholdDBm, 0, math.Inf(1)
		if t := env.DBmToMilliwatts(r.CSThresholdDBm); t >= 0x1p-1022 && t <= math.MaxFloat64 {
			r.csLo, r.csHi = t*(1-csBand), t*(1+csBand)
		}
	}
	switch {
	case e > r.csHi:
		return true
	case e > 0 && e < r.csLo:
		return false
	}
	return env.MilliwattsToDBm(e) > r.CSThresholdDBm
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
// for bits/rate seconds; when it ends, every other attached radio's
// OnReceive fires with a Receipt, in ascending radio-ID order. The
// payload is carried opaquely.
func (m *Medium) Transmit(r *Radio, bits int, rate Rate, payload any) (*Transmission, error) {
	if bits <= 0 {
		return nil, ErrZeroBits
	}
	if !m.attached(r) {
		return nil, fmt.Errorf("radio: %s not attached", r.Name)
	}
	if r.down > 0 {
		return nil, ErrRadioDown
	}
	airSeconds := float64(bits) / (rate.Mbps * 1e6)
	now := m.kernel.Now()
	m.seq++
	tx := &Transmission{
		Seq:     m.seq,
		Src:     r,
		Bits:    bits,
		Rate:    rate,
		Start:   now,
		End:     now + sim.Time(airSeconds*float64(sim.Second)),
		payload: payload,
		range2:  squared(m.hearingRange(r)),
		led:     m.acquireLedger(),
	}
	// Record mutual interference with all currently active transmissions,
	// oldest first.
	hearers := m.candidatesFor(r)
	for _, other := range m.active {
		m.recordInterference(tx, other, m.candidatesFor(other.Src))
		m.recordInterference(other, tx, hearers)
	}
	m.active = append(m.active, tx) // Seq is monotonic: stays sorted
	m.Sent++
	m.kernel.ScheduleFn(tx.End-now, "radio.txEnd", finishTransmission, tx)
	return tx, nil
}

// finishTransmission is the ScheduleFn trampoline for the
// end-of-transmission event; the medium is recovered from the sender,
// whose binding outlives detachment.
func finishTransmission(a any) {
	tx := a.(*Transmission)
	tx.Src.medium.finish(tx)
}

// recordInterference adds other's power into victim's per-receiver
// interference ledger. hearers is the candidate set for other.Src (the
// radios that could hear the interfering emission), in ascending ID
// order; receivers beyond other's exact hearing range are skipped here,
// since the candidate set is only cell-conservative.
func (m *Medium) recordInterference(victim, other *Transmission, hearers []*Radio) {
	for _, rx := range hearers {
		if rx.ID == victim.Src.ID {
			continue
		}
		ov := ChannelOverlap(other.Src.Channel, rx.Channel)
		if ov == 0 {
			continue
		}
		if distSq(other.Src.Pos, rx.Pos) > other.range2 {
			continue // below the receive cutoff by construction
		}
		mw, _ := m.linkGain(other.Src, rx)
		victim.led.add(rx.ID, mw*ov)
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
	// The candidate snapshot is immutable: OnReceive callbacks may
	// transmit or attach/detach radios without disturbing this delivery
	// round (detached receivers are re-checked below). The exact range
	// decision is likewise frozen here, before any callback runs: a
	// callback that moves a radio must not change this round's delivery
	// membership, or the cell-conservative superset and a rebuilt exact
	// circle would disagree. The frozen in-range set lives in a scratch
	// buffer reused across deliveries (finish never nests: it only runs
	// as a kernel event, and callbacks can only schedule, not deliver).
	receivers := m.candidatesFor(tx.Src)
	if !math.IsInf(tx.range2, 1) {
		inRange := m.rxScratch[:0]
		for _, rx := range receivers {
			if distSq(tx.Src.Pos, rx.Pos) <= tx.range2 {
				inRange = append(inRange, rx)
			}
		}
		m.rxScratch = inRange[:0]
		receivers = inRange
	}
	for _, rx := range receivers {
		if rx.OnReceive == nil || rx.down > 0 || !m.attached(rx) {
			continue
		}
		ov := ChannelOverlap(tx.Src.Channel, rx.Channel)
		if ov == 0 {
			continue
		}
		mw, rssi := m.linkGain(tx.Src, rx)
		sigMW := mw * ov
		intMW := tx.led.at(rx.ID)
		sinr := 10 * math.Log10(sigMW/(noiseMW+intMW))
		ok := sinr >= tx.Rate.MinSINRdB
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
		rx.OnReceive(Receipt{Tx: tx, RSSIdBm: rssi, SINRdB: sinr, OK: ok})
	}
	// The ledger is no longer needed: recordInterference only targets
	// active transmissions, and delivery above has consumed every cell.
	m.ledgerFree = append(m.ledgerFree, tx.led)
	tx.led = nil
}

// ActiveTransmissions returns the number of frames currently in the air.
func (m *Medium) ActiveTransmissions() int { return len(m.active) }

// EstimateDistance performs RSSI ranging from src to dst: it measures the
// received power and inverts the free-space-with-exponent model. Walls and
// shadowing corrupt the estimate, reproducing experiment C8.
func (m *Medium) EstimateDistance(src, dst *Radio) float64 {
	rssi := m.MeasureRSSI(src, dst)
	return m.env.EstimateDistanceFromRSSI(src.TxPowerDBm, rssi)
}

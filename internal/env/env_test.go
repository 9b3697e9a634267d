package env

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"aroma/internal/geo"
	"aroma/internal/sim"
)

func newEnv(t *testing.T) *Environment {
	t.Helper()
	k := sim.New(1)
	plan := geo.NewFloorPlan(geo.RectAt(0, 0, 50, 50))
	return New(k, plan)
}

func TestDBmConversions(t *testing.T) {
	if mw := DBmToMilliwatts(0); math.Abs(mw-1) > 1e-12 {
		t.Fatalf("0 dBm = %v mW", mw)
	}
	if mw := DBmToMilliwatts(30); math.Abs(mw-1000) > 1e-9 {
		t.Fatalf("30 dBm = %v mW", mw)
	}
	if dbm := MilliwattsToDBm(1); math.Abs(dbm) > 1e-12 {
		t.Fatalf("1 mW = %v dBm", dbm)
	}
	if dbm := MilliwattsToDBm(0); dbm != -1000 {
		t.Fatalf("0 mW = %v dBm, want -1000 sentinel", dbm)
	}
}

func TestPathLossIncreasesWithDistance(t *testing.T) {
	e := newEnv(t)
	tx := geo.Pt(0, 0)
	prev := -1.0
	for _, d := range []float64{1, 2, 5, 10, 20, 40} {
		loss := e.PathLossDB(tx, geo.Pt(d, 0))
		if loss <= prev {
			t.Fatalf("loss not increasing at d=%v: %v <= %v", d, loss, prev)
		}
		prev = loss
	}
}

func TestPathLossReferencePoint(t *testing.T) {
	e := newEnv(t)
	// At 1 m with no walls/shadowing, loss = reference loss.
	if loss := e.PathLossDB(geo.Pt(0, 0), geo.Pt(1, 0)); math.Abs(loss-ReferenceLossDB) > 1e-9 {
		t.Fatalf("1 m loss = %v, want %v", loss, ReferenceLossDB)
	}
	// At 10 m with n=3: ref + 30 dB.
	if loss := e.PathLossDB(geo.Pt(0, 0), geo.Pt(10, 0)); math.Abs(loss-(ReferenceLossDB+30)) > 1e-9 {
		t.Fatalf("10 m loss = %v, want %v", loss, ReferenceLossDB+30)
	}
}

func TestSubMeterClamped(t *testing.T) {
	e := newEnv(t)
	l1 := e.PathLossDB(geo.Pt(0, 0), geo.Pt(0.1, 0))
	l2 := e.PathLossDB(geo.Pt(0, 0), geo.Pt(1, 0))
	if l1 != l2 {
		t.Fatalf("sub-metre loss %v != 1 m loss %v", l1, l2)
	}
}

func TestWallAttenuation(t *testing.T) {
	k := sim.New(1)
	plan := geo.NewFloorPlan(geo.RectAt(0, 0, 50, 50))
	plan.AddWall(geo.Seg(geo.Pt(5, 0), geo.Pt(5, 50)), 6, 20)
	e := New(k, plan)
	through := e.PathLossDB(geo.Pt(0, 25), geo.Pt(10, 25))
	clear := ReferenceLossDB + 10*e.PathLossExponent*math.Log10(10)
	if math.Abs(through-(clear+6)) > 1e-9 {
		t.Fatalf("wall loss = %v, want %v", through, clear+6)
	}
}

func TestShadowingDeterministicAndSymmetric(t *testing.T) {
	e := newEnv(t)
	e.ShadowSigmaDB = 6
	a, b := geo.Pt(3.2, 4.7), geo.Pt(20.1, 30.9)
	l1 := e.PathLossDB(a, b)
	l2 := e.PathLossDB(a, b)
	if l1 != l2 {
		t.Fatalf("shadowing not frozen: %v vs %v", l1, l2)
	}
	fwd := e.PathLossDB(a, b)
	rev := e.PathLossDB(b, a)
	if fwd != rev {
		t.Fatalf("shadowing not symmetric: %v vs %v", fwd, rev)
	}
}

func TestReceivedPower(t *testing.T) {
	e := newEnv(t)
	rx := e.ReceivedPowerDBm(15, geo.Pt(0, 0), geo.Pt(10, 0))
	want := 15 - (ReferenceLossDB + 30)
	if math.Abs(rx-want) > 1e-9 {
		t.Fatalf("rx = %v, want %v", rx, want)
	}
}

func TestNoiseFloor(t *testing.T) {
	e := newEnv(t)
	if nf := e.NoiseFloorDBm(); math.Abs(nf-ThermalNoiseDBm) > 0.01 {
		t.Fatalf("noise floor = %v, want ~%v", nf, ThermalNoiseDBm)
	}
	e.AmbientNoiseDBm = ThermalNoiseDBm // equal ambient doubles power: +3 dB
	if nf := e.NoiseFloorDBm(); math.Abs(nf-(ThermalNoiseDBm+3.01)) > 0.05 {
		t.Fatalf("noise floor with ambient = %v, want ~%v", nf, ThermalNoiseDBm+3)
	}
}

func TestRSSIRangingPerfectWithoutWalls(t *testing.T) {
	e := newEnv(t)
	for _, trueD := range []float64{1, 3, 7, 15, 40} {
		rssi := e.ReceivedPowerDBm(15, geo.Pt(0, 0), geo.Pt(trueD, 0))
		est := e.EstimateDistanceFromRSSI(15, rssi)
		if math.Abs(est-trueD) > 1e-6*trueD {
			t.Fatalf("ranging at %v m: est %v", trueD, est)
		}
	}
}

func TestRSSIRangingDegradesWithWalls(t *testing.T) {
	k := sim.New(1)
	plan := geo.NewFloorPlan(geo.RectAt(0, 0, 50, 50))
	plan.AddWall(geo.Seg(geo.Pt(5, 0), geo.Pt(5, 50)), 6, 20)
	e := New(k, plan)
	trueD := 10.0
	rssi := e.ReceivedPowerDBm(15, geo.Pt(0, 25), geo.Pt(10, 25))
	est := e.EstimateDistanceFromRSSI(15, rssi)
	if est <= trueD {
		t.Fatalf("wall should inflate distance estimate: est=%v true=%v", est, trueD)
	}
}

func TestAmbientNoiseFloor(t *testing.T) {
	e := newEnv(t)
	if n := e.AmbientNoiseDB(geo.Pt(25, 25)); math.Abs(n-30) > 0.01 {
		t.Fatalf("quiet room = %v dB, want 30", n)
	}
}

func TestNoiseSourceRaisesLevel(t *testing.T) {
	e := newEnv(t)
	p := geo.Pt(25, 25)
	ns := e.AddNoiseSource("crowd", geo.Pt(26, 25), 70)
	loud := e.AmbientNoiseDB(p)
	if loud < 65 {
		t.Fatalf("noise at 1 m from 70 dB source = %v, want ~70", loud)
	}
	ns.On = false
	if q := e.AmbientNoiseDB(p); math.Abs(q-30) > 0.01 {
		t.Fatalf("disabled source still heard: %v", q)
	}
	ns.On = true
	e.RemoveNoiseSource(ns)
	if q := e.AmbientNoiseDB(p); math.Abs(q-30) > 0.01 {
		t.Fatalf("removed source still heard: %v", q)
	}
	if len(e.noise) != 0 {
		t.Fatal("source list not empty after removal")
	}
}

func TestNoiseDecaysWithDistance(t *testing.T) {
	e := newEnv(t)
	e.AddNoiseSource("hvac", geo.Pt(0, 0), 70)
	near := e.AmbientNoiseDB(geo.Pt(1, 0))
	far := e.AmbientNoiseDB(geo.Pt(20, 0))
	if near <= far {
		t.Fatalf("noise should decay: near=%v far=%v", near, far)
	}
}

func TestSpeechSNR(t *testing.T) {
	e := newEnv(t)
	speaker, mic := geo.Pt(10, 10), geo.Pt(10.5, 10)
	quiet := e.SpeechSNRDB(speaker, mic, 65)
	e.AddNoiseSource("chatter", geo.Pt(11, 10), 68)
	noisy := e.SpeechSNRDB(speaker, mic, 65)
	if noisy >= quiet {
		t.Fatalf("noise should reduce SNR: quiet=%v noisy=%v", quiet, noisy)
	}
}

func TestRecognitionCurveShape(t *testing.T) {
	if p := RecognitionSuccessProbability(40); p < 0.99 {
		t.Fatalf("high SNR p = %v", p)
	}
	if p := RecognitionSuccessProbability(-10); p > 0.01 {
		t.Fatalf("low SNR p = %v", p)
	}
	if p := RecognitionSuccessProbability(15); math.Abs(p-0.5) > 1e-9 {
		t.Fatalf("midpoint p = %v", p)
	}
	// Monotone non-decreasing.
	prev := -1.0
	for snr := -20.0; snr <= 40; snr += 1 {
		p := RecognitionSuccessProbability(snr)
		if p < prev {
			t.Fatalf("recognition curve not monotone at %v", snr)
		}
		prev = p
	}
}

func TestNilPlanDefaults(t *testing.T) {
	e := New(sim.New(1), nil)
	if e.plan == nil {
		t.Fatal("nil plan not defaulted")
	}
}

func TestStringSummary(t *testing.T) {
	e := newEnv(t)
	if s := e.String(); s == "" {
		t.Fatal("empty String()")
	}
}

// Property: path loss is symmetric (without shadowing it is analytic;
// with shadowing the frozen field enforces it).
func TestPropertyPathLossSymmetric(t *testing.T) {
	e := newEnv(t)
	e.ShadowSigmaDB = 4
	f := func(ax, ay, bx, by uint8) bool {
		a := geo.Pt(float64(ax%50), float64(ay%50))
		b := geo.Pt(float64(bx%50), float64(by%50))
		return math.Abs(e.PathLossDB(a, b)-e.PathLossDB(b, a)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(8))}); err != nil {
		t.Fatal(err)
	}
}

// Property: received power never exceeds transmit power (loss >= 0 in this
// model since reference loss is 40 dB).
func TestPropertyRxBelowTx(t *testing.T) {
	e := newEnv(t)
	f := func(ax, ay, bx, by uint8, txp int8) bool {
		a := geo.Pt(float64(ax%50), float64(ay%50))
		b := geo.Pt(float64(bx%50), float64(by%50))
		return e.ReceivedPowerDBm(float64(txp), a, b) <= float64(txp)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(9))}); err != nil {
		t.Fatal(err)
	}
}

// Property: MaxRangeForCutoff is conservative — any receiver inside the
// returned range may be above the cutoff, but any receiver beyond it is
// guaranteed below, even with shadowing enabled and no walls to help.
func TestMaxRangeForCutoffConservative(t *testing.T) {
	e := newEnv(t)
	e.ShadowSigmaDB = 4
	const txp, cutoff = 15.0, -92.0
	d := e.MaxRangeForCutoff(txp, cutoff)
	if d <= 1 {
		t.Fatalf("range bound %v too small for %v dBm tx", d, txp)
	}
	f := func(ax, ay uint16) bool {
		a := geo.Pt(float64(ax%2000), float64(ay%2000))
		b := geo.Pt(0, 0)
		if a.Dist(b) <= d {
			return true // inside the bound: no claim either way
		}
		return e.ReceivedPowerDBm(txp, a, b) < cutoff
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(11))}); err != nil {
		t.Fatal(err)
	}
}

func TestMaxRangeForCutoffClampsToReference(t *testing.T) {
	e := newEnv(t)
	if d := e.MaxRangeForCutoff(-100, 0); d != 1 {
		t.Fatalf("sub-reference bound = %v, want clamp to 1", d)
	}
}

// Package env simulates the paper's Environment layer: the physical
// surroundings that pervasive entities inhabit and communicate through.
//
// The paper argues the environment must be a first-class layer rather than
// an engineering nuisance: radio propagation (ranging, interference,
// scaling in the crowded 2.4 GHz band), acoustic noise that defeats voice
// interfaces, and social constraints all live here. This package provides:
//
//   - a radio propagation model (log-distance path loss plus wall
//     attenuation from a geo.FloorPlan, with deterministic shadow fading),
//   - an acoustic model (speech level vs distance and ambient noise), and
//   - ambient condition fields (noise sources that can be placed, moved,
//     and switched).
//
// All randomness comes from the owning sim.Kernel, so environments are
// reproducible.
package env

import (
	"fmt"
	"math"

	"aroma/internal/geo"
	"aroma/internal/sim"
)

// Physical constants for the 2.4 GHz ISM band model.
const (
	// ReferenceLossDB is the free-space path loss at the 1 m reference
	// distance for 2.4 GHz (20*log10(4*pi*d*f/c) with d=1 m).
	ReferenceLossDB = 40.0

	// DefaultPathLossExponent models indoor office propagation.
	DefaultPathLossExponent = 3.0

	// ThermalNoiseDBm is the thermal noise floor for a 22 MHz 802.11
	// channel at room temperature (-174 dBm/Hz + 10*log10(22e6)).
	ThermalNoiseDBm = -100.0
)

// DBmToMilliwatts converts a dBm power level to milliwatts.
func DBmToMilliwatts(dbm float64) float64 { return math.Pow(10, dbm/10) }

// MilliwattsToDBm converts a milliwatt power level to dBm.
// Zero or negative power maps to -infinity dBm represented as -1000.
func MilliwattsToDBm(mw float64) float64 {
	if mw <= 0 {
		return -1000
	}
	return 10 * math.Log10(mw)
}

// Environment is the shared physical context for one simulation. It owns
// the floor plan, the propagation model parameters, and the set of
// acoustic noise sources.
type Environment struct {
	kernel *sim.Kernel
	plan   *geo.FloorPlan

	// PathLossExponent is the log-distance exponent n; 2 is free space,
	// 3–4 is typical indoors.
	PathLossExponent float64

	// ShadowSigmaDB is the standard deviation of log-normal shadow
	// fading. Shadowing is frozen per (tx, rx) grid cell so that repeated
	// measurements at the same positions agree (deterministic field), and
	// draws are clamped to ±3 sigma so MaxRangeForCutoff's hearing-range
	// bound is exact rather than probabilistic.
	ShadowSigmaDB float64

	// AmbientNoiseDBm is extra wideband RF noise added to the thermal
	// floor (e.g. microwave ovens); applied to every receiver.
	AmbientNoiseDBm float64

	shadowCells map[shadowKey]float64
	noise       []*NoiseSource
	nextID      int
}

type shadowKey struct {
	txX, txY, rxX, rxY int
}

// New creates an environment over the given floor plan with default
// indoor propagation parameters.
func New(k *sim.Kernel, plan *geo.FloorPlan) *Environment {
	if plan == nil {
		plan = geo.NewFloorPlan(geo.RectAt(0, 0, 100, 100))
	}
	return &Environment{
		kernel:           k,
		plan:             plan,
		PathLossExponent: DefaultPathLossExponent,
		ShadowSigmaDB:    0,
		AmbientNoiseDBm:  -1000, // effectively none
		shadowCells:      make(map[shadowKey]float64),
	}
}

// PathLossDB returns the total radio path loss in dB between two points:
// log-distance loss + wall attenuation + frozen shadow fading.
// Distances below 1 m are clamped to the reference distance.
func (e *Environment) PathLossDB(tx, rx geo.Point) float64 {
	d := tx.Dist(rx)
	if d < 1 {
		d = 1
	}
	loss := ReferenceLossDB + 10*e.PathLossExponent*math.Log10(d)
	loss += e.plan.PathLossDB(tx, rx)
	loss += e.shadow(tx, rx)
	return loss
}

// shadow returns deterministic per-cell log-normal shadowing.
func (e *Environment) shadow(tx, rx geo.Point) float64 {
	if e.ShadowSigmaDB <= 0 {
		return 0
	}
	key := shadowKey{int(tx.X), int(tx.Y), int(rx.X), int(rx.Y)}
	if v, ok := e.shadowCells[key]; ok {
		return v
	}
	// Symmetric link: reuse the reverse direction's draw.
	rev := shadowKey{key.rxX, key.rxY, key.txX, key.txY}
	if v, ok := e.shadowCells[rev]; ok {
		e.shadowCells[key] = v
		return v
	}
	v := e.kernel.Rand().NormFloat64() * e.ShadowSigmaDB
	if limit := 3 * e.ShadowSigmaDB; v > limit {
		v = limit
	} else if v < -limit {
		v = -limit
	}
	e.shadowCells[key] = v
	return v
}

// ReceivedPowerDBm returns the signal power at rx for a transmitter at tx
// emitting txPowerDBm.
func (e *Environment) ReceivedPowerDBm(txPowerDBm float64, tx, rx geo.Point) float64 {
	return txPowerDBm - e.PathLossDB(tx, rx)
}

// NoiseFloorDBm returns the effective RF noise floor (thermal + ambient).
func (e *Environment) NoiseFloorDBm() float64 {
	thermal := DBmToMilliwatts(ThermalNoiseDBm)
	ambient := DBmToMilliwatts(e.AmbientNoiseDBm)
	return MilliwattsToDBm(thermal + ambient)
}

// EstimateDistanceFromRSSI inverts the log-distance model to estimate the
// distance that would produce the observed received power, ignoring walls
// and shadowing — exactly what a naive RSSI-ranging implementation does,
// which is why ranging degrades with wall count (experiment C8).
func (e *Environment) EstimateDistanceFromRSSI(txPowerDBm, rssiDBm float64) float64 {
	lossDB := txPowerDBm - rssiDBm
	exp := (lossDB - ReferenceLossDB) / (10 * e.PathLossExponent)
	return math.Pow(10, exp)
}

// MaxRangeForCutoff returns a conservative upper bound, in metres, on the
// distance at which a transmitter at txPowerDBm can still be received at or
// above cutoffDBm. It inverts the log-distance model assuming the
// best-possible path: no walls (walls only attenuate) and the maximum
// 3-sigma shadow-fading gain (shadow draws are clamped there). Any radio
// farther away than this bound is guaranteed to receive below the cutoff,
// so spatial indexes may skip it without changing physics. The bound is
// never below the 1 m reference distance.
func (e *Environment) MaxRangeForCutoff(txPowerDBm, cutoffDBm float64) float64 {
	budget := txPowerDBm - cutoffDBm - ReferenceLossDB + 3*e.ShadowSigmaDB
	d := math.Pow(10, budget/(10*e.PathLossExponent))
	if d < 1 {
		return 1
	}
	return d
}

// NoiseSource is an acoustic noise emitter: conversation, HVAC, a crowd.
// LevelDB is the sound pressure level at 1 m from the source.
type NoiseSource struct {
	ID      int
	Name    string
	Pos     geo.Point
	LevelDB float64
	On      bool
}

// AddNoiseSource places an acoustic noise source and returns it.
func (e *Environment) AddNoiseSource(name string, pos geo.Point, levelDB float64) *NoiseSource {
	e.nextID++
	ns := &NoiseSource{ID: e.nextID, Name: name, Pos: pos, LevelDB: levelDB, On: true}
	e.noise = append(e.noise, ns)
	return ns
}

// RemoveNoiseSource deletes a previously added source.
func (e *Environment) RemoveNoiseSource(ns *NoiseSource) {
	for i, s := range e.noise {
		if s == ns {
			e.noise = append(e.noise[:i], e.noise[i+1:]...)
			return
		}
	}
}

// acousticAttenuation returns sound attenuation in dB from src to p:
// 20*log10(d) spreading loss plus wall acoustic losses.
func (e *Environment) acousticAttenuation(src, p geo.Point) float64 {
	d := src.Dist(p)
	if d < 1 {
		d = 1
	}
	return 20*math.Log10(d) + e.plan.AcousticLossDB(src, p)
}

// AmbientNoiseDB returns the total acoustic noise level at p from all
// active sources (power-summed), floored at 30 dB (a quiet room).
func (e *Environment) AmbientNoiseDB(p geo.Point) float64 {
	const floorDB = 30
	total := math.Pow(10, floorDB/10)
	for _, ns := range e.noise {
		if !ns.On {
			continue
		}
		level := ns.LevelDB - e.acousticAttenuation(ns.Pos, p)
		total += math.Pow(10, level/10)
	}
	return 10 * math.Log10(total)
}

// SpeechSNRDB returns the speech signal-to-noise ratio in dB at the
// listener position for a speaker producing speechDB at 1 m.
func (e *Environment) SpeechSNRDB(speaker, listener geo.Point, speechDB float64) float64 {
	signal := speechDB - e.acousticAttenuation(speaker, listener)
	return signal - e.AmbientNoiseDB(listener)
}

// RecognitionSuccessProbability maps a speech SNR to the probability that
// a year-2000 speech recognizer correctly decodes a command. The logistic
// curve is centred at 15 dB SNR with a 4 dB slope — recognition is nearly
// perfect in a quiet office and collapses in a noisy room, which is the
// shape the paper's environment-layer discussion predicts.
func RecognitionSuccessProbability(snrDB float64) float64 {
	return 1 / (1 + math.Exp(-(snrDB-15)/4))
}

// String summarizes the environment.
func (e *Environment) String() string {
	return fmt.Sprintf("env{n=%.1f shadow=%.1fdB walls=%d noiseSrcs=%d}",
		e.PathLossExponent, e.ShadowSigmaDB, len(e.plan.Walls), len(e.noise))
}

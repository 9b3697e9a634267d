// Package env simulates the paper's Environment layer: the physical
// surroundings that pervasive entities inhabit and communicate through.
//
// The paper argues the environment must be a first-class layer rather than
// an engineering nuisance: radio propagation (ranging, interference,
// scaling in the crowded 2.4 GHz band), acoustic noise that defeats voice
// interfaces, and social constraints all live here. This package provides:
//
//   - a radio propagation model (log-distance path loss with a fixed
//     indoor exponent plus wall attenuation from a geo.FloorPlan, over a
//     thermal noise floor),
//   - an acoustic model (speech level vs distance and ambient noise), and
//   - ambient condition fields (noise sources that can be placed, moved,
//     and switched).
//
// The propagation model draws no random numbers: a link's path loss is a
// pure function of its two positions and the floor plan.
package env

import (
	"fmt"
	"math"

	"aroma/internal/geo"
)

// Physical constants for the 2.4 GHz ISM band model.
const (
	// ReferenceLossDB is the free-space path loss at the 1 m reference
	// distance for 2.4 GHz (20*log10(4*pi*d*f/c) with d=1 m).
	ReferenceLossDB = 40.0

	// PathLossExponent is the log-distance exponent n, modelling indoor
	// office propagation (2 is free space, 3–4 is typical indoors).
	PathLossExponent = 3.0

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
// the floor plan and the set of acoustic noise sources.
type Environment struct {
	plan   *geo.FloorPlan
	noise  []*NoiseSource
	nextID int
}

// New creates an environment over the given floor plan.
func New(plan *geo.FloorPlan) *Environment {
	if plan == nil {
		plan = geo.NewFloorPlan(geo.RectAt(0, 0, 100, 100))
	}
	return &Environment{plan: plan}
}

// PathLossDB returns the total radio path loss in dB between two points:
// log-distance loss plus wall attenuation. Distances below 1 m are
// clamped to the reference distance.
func (e *Environment) PathLossDB(tx, rx geo.Point) float64 {
	d := tx.Dist(rx)
	if d < 1 {
		d = 1
	}
	loss := ReferenceLossDB + 10*PathLossExponent*math.Log10(d)
	loss += e.plan.PathLossDB(tx, rx)
	return loss
}

// ReceivedPowerDBm returns the signal power at rx for a transmitter at tx
// emitting txPowerDBm.
func (e *Environment) ReceivedPowerDBm(txPowerDBm float64, tx, rx geo.Point) float64 {
	return txPowerDBm - e.PathLossDB(tx, rx)
}

// NoiseFloorDBm returns the RF noise floor: the thermal floor, taken
// through milliwatts and back as every receiver's noise sum takes it.
func NoiseFloorDBm() float64 {
	return MilliwattsToDBm(DBmToMilliwatts(ThermalNoiseDBm))
}

// EstimateDistanceFromRSSI inverts the log-distance model to estimate the
// distance that would produce the observed received power, ignoring walls
// — exactly what a naive RSSI-ranging implementation does, which is why
// ranging degrades with wall count (experiment C8).
func EstimateDistanceFromRSSI(txPowerDBm, rssiDBm float64) float64 {
	lossDB := txPowerDBm - rssiDBm
	exp := (lossDB - ReferenceLossDB) / (10 * PathLossExponent)
	return math.Pow(10, exp)
}

// MaxRangeForCutoff returns an upper bound, in metres, on the distance at
// which a transmitter at txPowerDBm can still be received at or above
// cutoffDBm. It inverts the log-distance model assuming the best-possible
// path: no walls (walls only attenuate). Any radio farther away than this
// bound is guaranteed to receive below the cutoff, so spatial indexes may
// skip it without changing physics. The bound is never below the 1 m
// reference distance.
func MaxRangeForCutoff(txPowerDBm, cutoffDBm float64) float64 {
	budget := txPowerDBm - cutoffDBm - ReferenceLossDB
	d := math.Pow(10, budget/(10*PathLossExponent))
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
	return fmt.Sprintf("env{walls=%d noiseSrcs=%d}", len(e.plan.Walls), len(e.noise))
}

// Package main's bench file regenerates every reproduced figure and
// claim of the paper as a testing.B benchmark: one benchmark per entry
// of the experiment index, internal/experiments.All. Run with
//
//	go test -bench=. -benchmem
//
// Each iteration executes the full experiment with a distinct seed and
// asserts the paper-shape check, so the benchmarks double as repeated
// statistical validation of the reproduction.
package main

import (
	"testing"

	"aroma/internal/experiments"
)

// benchExperiment runs one experiment per iteration with varying seeds.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	exp := experiments.ByID(id)
	if exp == nil {
		b.Fatalf("unknown experiment %s", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res := exp.Run(int64(i + 1))
		if !res.ShapeOK {
			b.Fatalf("%s shape check failed on seed %d: %s", id, i+1, res.ShapeWhy)
		}
	}
}

// Figures F1–F5.

func BenchmarkFigure1Render(b *testing.B)      { benchExperiment(b, "F1") }
func BenchmarkFigure2Compat(b *testing.B)      { benchExperiment(b, "F2") }
func BenchmarkFigure3Frustration(b *testing.B) { benchExperiment(b, "F3") }
func BenchmarkFigure4Consistency(b *testing.B) { benchExperiment(b, "F4") }
func BenchmarkFigure5Harmony(b *testing.B)     { benchExperiment(b, "F5") }

// Claims C1–C10 from the Smart Projector analysis.

func BenchmarkC1AnimationBandwidth(b *testing.B) { benchExperiment(b, "C1") }
func BenchmarkC2DeviceDensity(b *testing.B)      { benchExperiment(b, "C2") }
func BenchmarkC3Discovery(b *testing.B)          { benchExperiment(b, "C3") }
func BenchmarkC4Sessions(b *testing.B)           { benchExperiment(b, "C4") }
func BenchmarkC5ConceptualBurden(b *testing.B)   { benchExperiment(b, "C5") }
func BenchmarkC6VoiceNoise(b *testing.B)         { benchExperiment(b, "C6") }
func BenchmarkC7MobileCode(b *testing.B)         { benchExperiment(b, "C7") }
func BenchmarkC8Ranging(b *testing.B)            { benchExperiment(b, "C8") }
func BenchmarkC9Roaming(b *testing.B)            { benchExperiment(b, "C9") }
func BenchmarkC10DiscoveryBaseline(b *testing.B) { benchExperiment(b, "C10") }

// Sweep campaigns.

func BenchmarkS1ConcentrationCampaign(b *testing.B) { benchExperiment(b, "S1") }
func BenchmarkS2ForkedReplications(b *testing.B)    { benchExperiment(b, "S2") }

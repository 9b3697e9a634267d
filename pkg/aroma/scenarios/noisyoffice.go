// Noisyoffice: the paper's environment-layer user scenario — voice
// control that works in a quiet office becomes unusable as background
// conversation builds, and the frustrated user eventually gives up.
//
// "Background noise, that is currently acceptable, may become
// objectionable if voice recognition is used in a pervasive computing
// system."

package scenarios

import (
	"fmt"

	"aroma/internal/env"
	"aroma/internal/geo"
	"aroma/pkg/aroma"
	"aroma/pkg/aroma/scenario"
)

func init() {
	scenario.Register("noisyoffice",
		"voice control vs rising office noise: frustration to abandonment",
		buildNoisyOffice)
}

func buildNoisyOffice(cfg scenario.Config) (*scenario.Built, error) {
	// Cubicle partitions: thin, acoustically leaky.
	plan := geo.NewFloorPlan(geo.RectAt(0, 0, 12, 8))
	plan.AddWall(geo.Seg(geo.Pt(4, 0), geo.Pt(4, 5)), 3, 6)
	plan.AddWall(geo.Seg(geo.Pt(8, 0), geo.Pt(8, 5)), 3, 6)

	w := aroma.NewWorld(
		aroma.WithName("noisy-office"),
		aroma.WithSeed(cfg.SeedOr(3)),
		aroma.WithFloorPlan(plan),
	)

	// Dana's cubicle has a voice-controlled appliance half a metre away.
	mic := aroma.Pt(2.5, 2)
	w.AddDevice("dictation-appliance", mic,
		aroma.Offline(),
		aroma.WithSpec(aroma.Spec{
			Name: "dictation-appliance", Exec: aroma.MultiThreaded, AllowAbort: true,
			UI: aroma.UISpec{
				InputMethods: []string{"voice"},
				Languages:    []string{"en"},
				BaseLatency:  200 * aroma.Millisecond,
			},
		}),
		aroma.WithPurpose(aroma.Purpose{
			Description:  "hands-free dictation at the desk",
			Capabilities: map[string]float64{"dictation": 0.8},
			AssumedSkill: 0.3,
		}),
	)

	fac := aroma.Casual()
	fac.FrustrationTolerance = 0.75 // dana really wants this to work
	dana := w.AddUser("dana", aroma.Pt(2, 2),
		aroma.WithFaculties(fac),
		aroma.WithFrustrationHalfLife(2*aroma.Hour), // a bad morning lingers
		aroma.WithGoal("dictate the report", 1, "dictation"),
		aroma.Operating("dictation-appliance"),
		aroma.UsingVoice(),
		aroma.OnAbandon(func(cause string) {
			cfg.Printf("[%8s] dana gives up on voice control: %s\n", w.Now(), cause)
		}),
	)

	cfg.Println("hour-by-hour office day; dana issues 10 voice commands per hour")
	e := w.Env()
	rng := w.Kernel().Rand()
	u := dana.U()
	conversations := []*env.NoiseSource{}
	// The office day, front-loaded as one scheduled event per hour
	// (virtual time zero is 08:00). A shorter horizon simply never
	// reaches the later hours; abandonment mutes them.
	for hour := 8; hour <= 16; hour++ {
		hour := hour
		w.Schedule(aroma.Time(hour-8)*aroma.Hour, "office-hour", func() {
			if u.Abandoned() {
				return // dana is gone; the office day goes on without her
			}
			// The office fills up until lunch, empties after 15:00.
			switch {
			case hour <= 11:
				// Each arriving conversation is a bit closer to dana's desk.
				c := e.AddNoiseSource(fmt.Sprintf("chat-%d", hour),
					aroma.Pt(9-float64(len(conversations)), 4), 62)
				conversations = append(conversations, c)
			case hour >= 15 && len(conversations) > 0:
				e.RemoveNoiseSource(conversations[len(conversations)-1])
				conversations = conversations[:len(conversations)-1]
			}
			snr := e.SpeechSNRDB(u.Pos, mic, u.Physiology.SpeechLevelDB)
			p := env.RecognitionSuccessProbability(snr)
			ok, fail := 0, 0
			for i := 0; i < 10 && !u.Abandoned(); i++ {
				if rng.Float64() < p {
					ok++
				} else {
					fail++
					// A misrecognized command is a small frustration; having
					// to repeat yourself in front of colleagues is worse.
					u.Frustrate(0.05, fmt.Sprintf("misrecognized command at %02d:00", hour))
				}
			}
			cfg.Printf("  %02d:00  conversations=%d  SNR=%5.1f dB  p=%.2f  ok=%2d fail=%2d  frustration=%.2f\n",
				hour, len(conversations), snr, p, ok, fail, u.Frustration())
		})
	}

	finish := func(res *scenario.Result) {
		if !u.Abandoned() {
			cfg.Println("dana made it through the day — a quieter office (or a better mic) would too")
		}

		// The LPC analyzer sees the same story: with the office still in its
		// end-of-day state, the environment layer checks dana's voice path.
		report := w.Analyze()
		if cfg.Verbose {
			cfg.Println()
			cfg.Println(report.Render())
		}

		cfg.Println("\nand the social inverse: even with perfect recognition, dana talking to a")
		cfg.Println("machine all day raises the ambient level for everyone else's cubicle:")
		coworker := aroma.Pt(5, 2) // the other side of the partition
		before := e.AmbientNoiseDB(coworker)
		danaSrc := e.AddNoiseSource("dana-voice-commands", u.Pos, u.Physiology.SpeechLevelDB)
		after := e.AmbientNoiseDB(coworker)
		e.RemoveNoiseSource(danaSrc) // leave the world as found: Finish must be re-runnable
		cfg.Printf("coworker's noise floor: %.1f dB -> %.1f dB once dana starts dictating\n", before, after)
		res.Report = report
	}
	return &scenario.Built{World: w, Horizon: cfg.HorizonOr(9 * aroma.Hour), Finish: finish}, nil
}

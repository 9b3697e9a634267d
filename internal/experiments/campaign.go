package experiments

import (
	"context"
	"fmt"
	"strconv"

	"aroma/internal/metrics"
	"aroma/internal/sim"
	"aroma/pkg/aroma/sweep"

	_ "aroma/pkg/aroma/scenarios" // the campaign sweeps the registered densitysweep
)

// ConcentrationDesign is the paper's device-concentration question
// ("the effect of a high concentration of these devices needs to be
// studied") expressed as a declarative sweep campaign instead of a
// hand-rolled loop: the densitysweep scenario over a radios axis, with
// independent seeded replications per cell. C2 measures the same
// question at MAC granularity; this design asks it at scenario scale
// and is the dogfood for the sweep engine.
func ConcentrationDesign(seed int64, reps int) sweep.Design {
	return sweep.Design{
		Scenario: "densitysweep",
		Axes: []sweep.Axis{
			sweep.Ints("radios", 50, 100, 200),
			sweep.Ints("side", 400),
			sweep.Ints("beacon", 200),
		},
		Reps:     reps,
		BaseSeed: seed,
		Horizon:  500 * sim.Millisecond,
	}
}

// S1 runs the concentration campaign on all cores and checks the
// paper's congestion shape across replication statistics: traffic grows
// with concentration while the SINR loss share worsens monotonically.
func S1(seed int64) *Result {
	r := &Result{ID: "S1", Title: "Device concentration campaign (MRIP sweep engine)"}

	s, err := sweep.New(ConcentrationDesign(seed, 3))
	if err != nil {
		r.ShapeWhy = fmt.Sprintf("design invalid: %v", err)
		return r
	}
	rep, err := s.Run(context.Background())
	if err != nil {
		r.ShapeWhy = fmt.Sprintf("sweep failed: %v", err)
		return r
	}
	r.Tables = append(r.Tables, rep.Table("sent", "delivered", "lost", "probes"))
	if rep.FailedCount() > 0 {
		r.ShapeWhy = fmt.Sprintf("%d run(s) failed", rep.FailedCount())
		return r
	}

	lossShare := &metrics.Series{Name: "SINR loss share vs concentration", XLabel: "radios", YLabel: "lost/(delivered+lost)"}
	sent := &metrics.Series{Name: "offered traffic vs concentration", XLabel: "radios", YLabel: "frames sent"}
	for _, c := range rep.Cells {
		radios, _ := strconv.Atoi(c.Params["radios"])
		d, l := c.Stats["delivered"].Mean(), c.Stats["lost"].Mean()
		if d+l > 0 {
			lossShare.Add(float64(radios), l/(d+l))
		}
		sent.Add(float64(radios), c.Stats["sent"].Mean())
	}
	r.Series = append(r.Series, lossShare)
	r.AddNote("every run digest-audited: %d runs, %d failed", len(rep.Rows), rep.FailedCount())

	r.ShapeOK = len(lossShare.Ys) == 3 &&
		sent.Monotone(+1, 0) &&
		lossShare.Monotone(+1, 1e-9) &&
		lossShare.Ys[2] > lossShare.Ys[0]
	r.ShapeWhy = "crowding the band grows offered traffic but a strictly larger share of receipts is lost to SINR — the concentration effect, now with CI95s from parallel replications"
	return r
}

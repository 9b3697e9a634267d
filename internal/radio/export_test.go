package radio

import "math"

// CheckHearers and CheckBusy expose the oracle checks to the external
// world tests.
var (
	CheckHearers = checkHearers
	CheckBusy    = checkBusy
)

// WithGridCellM overrides the medium's fixed grid cell size, so the
// unit tests and the oracle fuzz target can show the physics does not
// depend on it.
func WithGridCellM(meters float64) MediumOption {
	return func(m *Medium) { m.gridCell = meters }
}

// SINRdB returns the receipt's signal-to-interference-plus-noise ratio
// in dB, computed from the linear ratio delivery decided on each time
// it is called.
func (r Receipt) SINRdB() float64 { return 10 * math.Log10(r.sinr) }

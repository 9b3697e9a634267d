package env

import "aroma/internal/geo"

// NoiseState is one acoustic noise source in export form.
type NoiseState struct {
	ID      int       `json:"id"`
	Name    string    `json:"name"`
	Pos     geo.Point `json:"pos"`
	LevelDB float64   `json:"level_db"`
	On      bool      `json:"on"`
}

// State is the environment's exportable state: the propagation
// parameters and the acoustic noise sources in placement order (the
// order SpeechSNRDB folds them in). The propagation parameters are
// constants, PathLossExponent and no shadow fading; the snapshot format
// keeps their fields.
type State struct {
	PathLossExponent float64      `json:"path_loss_exponent"`
	ShadowSigmaDB    float64      `json:"shadow_sigma_db"`
	NextID           int          `json:"next_id"`
	Noise            []NoiseState `json:"noise,omitempty"`
}

// ExportState captures the environment's current state in canonical
// form.
func (e *Environment) ExportState() State {
	st := State{
		PathLossExponent: PathLossExponent,
		ShadowSigmaDB:    0, // no shadow fading
		NextID:           e.nextID,
	}
	for _, ns := range e.noise {
		st.Noise = append(st.Noise, NoiseState{
			ID: ns.ID, Name: ns.Name, Pos: ns.Pos, LevelDB: ns.LevelDB, On: ns.On,
		})
	}
	return st
}

// Package device describes the information appliance: the device column
// of the paper's resource layer, with the five resource classes of
// Figure 3 — Mem (volatile memory), Sto (non-volatile storage), Exe
// (execution engine), UI (user interface) and Net (networking).
//
// A Spec quantifies those resources so the resource-layer relation "user
// faculties must not be frustrated by the logical resources of the
// device" becomes checkable: the execution engine can be single- or
// multi-threaded and can forbid aborting tasks (the paper: "a
// single-threaded system that does not allow a user to abort a task
// causes needless frustration"), and the UI declares its latency,
// languages and input methods, which the analyzer checks the user's
// faculties against.
package device

import "aroma/internal/sim"

// ExecModel is the execution engine's concurrency model.
type ExecModel int

// Execution models.
const (
	// MultiThreaded runs tasks concurrently (time-sliced fair share).
	MultiThreaded ExecModel = iota
	// SingleThreaded runs tasks strictly one at a time, FIFO.
	SingleThreaded
)

// UISpec describes the user interface resource.
type UISpec struct {
	DisplayW, DisplayH int
	InputMethods       []string // e.g. "keyboard", "pointer", "buttons", "voice"
	Languages          []string // ISO-ish codes, e.g. "en", "fr"
	// BaseLatency is the UI's intrinsic response latency when unloaded.
	BaseLatency sim.Time
}

// HasInput reports whether the UI offers the given input method.
func (u UISpec) HasInput(method string) bool {
	for _, m := range u.InputMethods {
		if m == method {
			return true
		}
	}
	return false
}

// Spec is the static description of an appliance's resources.
type Spec struct {
	Name     string
	MemBytes int64
	StoBytes int64
	ExeMIPS  float64 // millions of instructions per second
	Exec     ExecModel
	// AllowAbort says whether a queued or running task can be aborted by
	// the user. The paper singles out its absence as a frustration source.
	AllowAbort bool
	UI         UISpec
}

// AromaAdapterSpec is the paper's embedded-PC Aroma Adapter: modest
// resources, no local UI beyond status buttons, English-only firmware.
func AromaAdapterSpec() Spec {
	return Spec{
		Name:       "aroma-adapter",
		MemBytes:   32 << 20, // 32 MB
		StoBytes:   64 << 20,
		ExeMIPS:    200,
		Exec:       MultiThreaded,
		AllowAbort: true,
		UI: UISpec{
			DisplayW: 0, DisplayH: 0,
			InputMethods: []string{"buttons"},
			Languages:    []string{"en"},
			BaseLatency:  50 * sim.Millisecond,
		},
	}
}

// LaptopSpec is the presenter's 2000-era laptop.
func LaptopSpec() Spec {
	return Spec{
		Name:       "laptop",
		MemBytes:   128 << 20,
		StoBytes:   6 << 30,
		ExeMIPS:    500,
		Exec:       MultiThreaded,
		AllowAbort: true,
		UI: UISpec{
			DisplayW: 1024, DisplayH: 768,
			InputMethods: []string{"keyboard", "pointer"},
			Languages:    []string{"en"},
			BaseLatency:  30 * sim.Millisecond,
		},
	}
}

// PDASpec is a constrained information appliance: single-threaded ROM
// firmware with no abort — the paper's doomed-PDA cautionary case.
func PDASpec() Spec {
	return Spec{
		Name:       "pda",
		MemBytes:   2 << 20,
		StoBytes:   8 << 20,
		ExeMIPS:    20,
		Exec:       SingleThreaded,
		AllowAbort: false,
		UI: UISpec{
			DisplayW: 160, DisplayH: 160,
			InputMethods: []string{"stylus"},
			Languages:    []string{"en"},
			BaseLatency:  120 * sim.Millisecond,
		},
	}
}

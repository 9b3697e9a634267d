// Package device models the information appliance: the device column of
// the paper's resource layer, with the five resource classes of Figure 3 —
// Mem (volatile memory), Sto (non-volatile storage), Exe (execution
// engine), UI (user interface) and Net (networking).
//
// Resources are quantified so the resource-layer relation "user faculties
// must not be frustrated by the logical resources of the device" becomes
// measurable: the execution engine can be single- or multi-threaded and
// can forbid aborting tasks (the paper: "a single-threaded system that
// does not allow a user to abort a task causes needless frustration"),
// storage has capacity and supports hierarchical organization ("allowing
// users to flexibly organize information"), and the UI declares languages
// and input methods that the user model checks its faculties against.
package device

import (
	"errors"
	"fmt"

	"aroma/internal/sim"
)

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

// Errors returned by resource operations.
var (
	ErrOutOfMemory    = errors.New("device: out of memory")
	ErrOutOfStorage   = errors.New("device: out of storage")
	ErrFileExists     = errors.New("device: file exists")
	ErrAbortForbidden = errors.New("device: this appliance cannot abort tasks")
	ErrNoSuchTask     = errors.New("device: no such task")
)

// Device is a running appliance with live resource accounting.
type Device struct {
	kernel *sim.Kernel
	spec   Spec

	memUsed int64
	files   map[string]int64 // path -> bytes
	stoUsed int64

	tasks    map[int]*Task
	queue    []*Task
	running  map[int]*Task
	nextTask int

	// Stats
	MemFailures  uint64
	StoFailures  uint64
	TasksRun     uint64
	TasksAborted uint64
}

// New boots a device with the given spec. No scenario runs a live
// appliance yet; the device tests drive the resource layer's Mem, Sto
// and Exe accounting through it, and core's load-dependent UI latency
// check reads one through DeviceEntity.Live.
//
//aroma:kept resource-layer model: the live appliance of the paper's Figure 3
func New(k *sim.Kernel, spec Spec) *Device {
	return &Device{
		kernel:  k,
		spec:    spec,
		files:   make(map[string]int64),
		tasks:   make(map[int]*Task),
		running: make(map[int]*Task),
	}
}

// --- Mem ---

// MemFree returns unallocated volatile memory in bytes.
func (d *Device) MemFree() int64 { return d.spec.MemBytes - d.memUsed }

// AllocMem reserves n bytes of volatile memory.
func (d *Device) AllocMem(n int64) error {
	if n < 0 {
		return fmt.Errorf("device: negative allocation %d", n)
	}
	if d.memUsed+n > d.spec.MemBytes {
		d.MemFailures++
		return fmt.Errorf("%w: want %d, free %d", ErrOutOfMemory, n, d.MemFree())
	}
	d.memUsed += n
	return nil
}

// FreeMem releases n bytes (clamped at zero).
func (d *Device) FreeMem(n int64) {
	d.memUsed -= n
	if d.memUsed < 0 {
		d.memUsed = 0
	}
}

// --- Sto ---

// StoFree returns remaining storage in bytes.
func (d *Device) StoFree() int64 { return d.spec.StoBytes - d.stoUsed }

// StoreFile writes a named file of the given size. Paths are hierarchical
// ("slides/intro.ppt") — the flexible organization the paper's resource
// layer asks storage to support.
//
//aroma:kept resource-layer model: storage capacity accounting (Sto)
func (d *Device) StoreFile(path string, size int64) error {
	if path == "" || size < 0 {
		return fmt.Errorf("device: bad file %q size %d", path, size)
	}
	if _, ok := d.files[path]; ok {
		return fmt.Errorf("%w: %s", ErrFileExists, path)
	}
	if d.stoUsed+size > d.spec.StoBytes {
		d.StoFailures++
		return fmt.Errorf("%w: want %d, free %d", ErrOutOfStorage, size, d.StoFree())
	}
	d.files[path] = size
	d.stoUsed += size
	return nil
}

// --- Exe ---

// TaskState tracks a task through the execution engine.
type TaskState int

// Task states.
const (
	TaskQueued TaskState = iota
	TaskRunning
	TaskDone
	TaskAborted
)

// String names the task state.
func (s TaskState) String() string {
	switch s {
	case TaskQueued:
		return "queued"
	case TaskRunning:
		return "running"
	case TaskDone:
		return "done"
	case TaskAborted:
		return "aborted"
	default:
		return fmt.Sprintf("TaskState(%d)", int(s))
	}
}

// Task is one unit of computation submitted to the execution engine.
type Task struct {
	ID         int
	Name       string
	MegaCycles float64
	State      TaskState
	Submitted  sim.Time
	Finished   sim.Time
	onDone     func(*Task)
	doneEvent  sim.Event
}

// Submit queues a computation of the given megacycles; onDone fires at
// completion or abort (check State).
func (d *Device) Submit(name string, megaCycles float64, onDone func(*Task)) *Task {
	d.nextTask++
	t := &Task{
		ID: d.nextTask, Name: name, MegaCycles: megaCycles,
		State: TaskQueued, Submitted: d.kernel.Now(), onDone: onDone,
	}
	d.tasks[t.ID] = t
	d.queue = append(d.queue, t)
	d.pump()
	return t
}

// pump starts queued tasks according to the execution model.
func (d *Device) pump() {
	for len(d.queue) > 0 {
		if d.spec.Exec == SingleThreaded && len(d.running) > 0 {
			return
		}
		t := d.queue[0]
		d.queue = d.queue[1:]
		d.start(t)
	}
}

func (d *Device) start(t *Task) {
	t.State = TaskRunning
	d.running[t.ID] = t
	// Fair-share slowdown: with k running tasks each gets 1/k of the MIPS.
	// Computed at start for simplicity (tasks are short relative to churn).
	share := d.spec.ExeMIPS / float64(len(d.running))
	seconds := t.MegaCycles / share
	t.doneEvent = d.kernel.Schedule(sim.Time(seconds*float64(sim.Second)), "device.taskDone", func() {
		d.finish(t, TaskDone)
	})
}

func (d *Device) finish(t *Task, state TaskState) {
	delete(d.running, t.ID)
	t.State = state
	t.Finished = d.kernel.Now()
	if state == TaskDone {
		d.TasksRun++
	}
	if t.onDone != nil {
		t.onDone(t)
	}
	d.pump()
}

// Abort cancels a queued or running task, if the appliance permits it.
// The paper names the missing abort as a source of needless user
// frustration, so the execution engine models it.
//
//aroma:kept resource-layer model: the paper's abortable execution engine (Exe)
func (d *Device) Abort(id int) error {
	if !d.spec.AllowAbort {
		return ErrAbortForbidden
	}
	t, ok := d.tasks[id]
	if !ok || t.State == TaskDone || t.State == TaskAborted {
		return ErrNoSuchTask
	}
	if t.State == TaskQueued {
		for i, q := range d.queue {
			if q.ID == id {
				d.queue = append(d.queue[:i], d.queue[i+1:]...)
				break
			}
		}
	}
	d.kernel.Cancel(t.doneEvent) // no-op for the zero Event
	d.TasksAborted++
	d.finish(t, TaskAborted)
	return nil
}

// UILatency returns the appliance's current UI response latency: the base
// latency inflated by execution-engine load (each concurrent task adds
// one base-latency quantum — a simple but monotone congestion model).
func (d *Device) UILatency() sim.Time {
	load := len(d.running) + len(d.queue)
	return d.spec.UI.BaseLatency * sim.Time(1+load)
}

// String summarizes live resource state.
func (d *Device) String() string {
	return fmt.Sprintf("%s{mem %d/%d sto %d/%d run %d queue %d}",
		d.spec.Name, d.memUsed, d.spec.MemBytes, d.stoUsed, d.spec.StoBytes,
		len(d.running), len(d.queue))
}

package device

import (
	"fmt"

	"aroma/internal/mobilecode"
)

// This file is the appliance's mobile-code runtime: the paper's $10
// system-on-chip is expected to ship "a sufficiently rich run-time
// environment capable of running sophisticated virtual machines", and
// downloaded proxies do not execute for free — they occupy volatile
// memory and burn execution-engine cycles. RunProgram charges both,
// which is how a slow appliance takes visibly longer to run the same
// proxy than a fast one (and how a full appliance refuses it outright).

// VM cost model constants.
const (
	// CyclesPerInstruction converts VM fuel to engine cycles: each VM
	// instruction costs this many machine cycles (interpreter overhead
	// included, generous for 2000-era embedded Java-style runtimes).
	CyclesPerInstruction = 200

	// BytesPerInstruction approximates the memory footprint of loaded
	// code per instruction (decoded form plus bookkeeping).
	BytesPerInstruction = 16

	// VMBaseFootprintBytes is the fixed cost of instantiating the VM
	// (stack, locals, frames).
	VMBaseFootprintBytes = 64 << 10
)

// ProgramFootprint returns the memory RunProgram will charge for prog.
func ProgramFootprint(prog *mobilecode.Program) int64 {
	consts := 0
	for _, c := range prog.Consts {
		consts += len(c)
	}
	return int64(VMBaseFootprintBytes + len(prog.Code)*BytesPerInstruction + consts)
}

// ProgramResult reports a completed (or aborted) mobile-code execution.
type ProgramResult struct {
	// Task is the engine task that carried the execution.
	Task *Task
	// Result is the VM outcome (zero value if the task was aborted
	// before completion).
	Result mobilecode.Result
	// Err is the VM fault, ErrAborted if the task was aborted, or nil.
	Err error
}

// ErrAborted reports that a mobile-code task was aborted before its
// completion was delivered.
var ErrAborted = fmt.Errorf("device: mobile code aborted")

// RunProgram executes mobile code on this appliance: it reserves the
// program's memory footprint, computes the execution (deterministically),
// charges the execution engine fuel-proportional cycles, and delivers the
// result when the engine task completes. done receives the outcome; the
// returned Task can be aborted (subject to the appliance's AllowAbort).
//
// Host syscalls run at submission time within the VM; their simulated
// latency is considered part of the charged execution.
//
//aroma:kept resource-layer model: mobile code charged to the appliance's Mem and Exe
func (d *Device) RunProgram(name string, prog *mobilecode.Program, entry string,
	host mobilecode.Host, fuel int64, args []int64, done func(ProgramResult)) (*Task, error) {

	footprint := ProgramFootprint(prog)
	if err := d.AllocMem(footprint); err != nil {
		return nil, fmt.Errorf("loading %s: %w", prog.Name, err)
	}
	vm := mobilecode.NewVM(host, fuel)
	res, vmErr := vm.Run(prog, entry, args...)

	// Charge engine time proportional to the fuel actually consumed.
	megaCycles := float64(res.FuelUsed) * CyclesPerInstruction / 1e6
	if megaCycles <= 0 {
		megaCycles = CyclesPerInstruction / 1e6 // at least one instruction
	}
	task := d.Submit(name, megaCycles, func(t *Task) {
		d.FreeMem(footprint)
		if done == nil {
			return
		}
		if t.State == TaskAborted {
			done(ProgramResult{Task: t, Err: ErrAborted})
			return
		}
		done(ProgramResult{Task: t, Result: res, Err: vmErr})
	})
	return task, nil
}

package device

import (
	"errors"
	"testing"

	"aroma/internal/mobilecode"
	"aroma/internal/sim"
)

const sumSrc = `
func main:
	store 0      ; n
	push 0
	store 1      ; acc
loop:
	load 0
	jz done
	load 1
	load 0
	add
	store 1
	load 0
	push 1
	sub
	store 0
	jmp loop
done:
	load 1
	halt`

func mustProg(t *testing.T) *mobilecode.Program {
	t.Helper()
	p, err := mobilecode.Assemble("sum", sumSrc)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestRunProgramDeliversResult(t *testing.T) {
	k := sim.New(1)
	d := New(k, LaptopSpec())
	var got ProgramResult
	delivered := false
	_, err := d.RunProgram("sum", mustProg(t), "main", nil, 0, []int64{100},
		func(r ProgramResult) { got = r; delivered = true })
	if err != nil {
		t.Fatal(err)
	}
	k.RunUntil(sim.Minute)
	if !delivered {
		t.Fatal("result not delivered")
	}
	if got.Err != nil {
		t.Fatal(got.Err)
	}
	if got.Result.Top() != 5050 {
		t.Fatalf("sum(100) = %d", got.Result.Top())
	}
	if d.memUsed != 0 {
		t.Fatalf("memory leaked: %d", d.memUsed)
	}
	if d.TasksRun != 1 {
		t.Fatalf("tasks run = %d", d.TasksRun)
	}
}

func TestSlowApplianceTakesLonger(t *testing.T) {
	run := func(spec Spec) sim.Time {
		k := sim.New(1)
		d := New(k, spec)
		var finished sim.Time = -1
		if _, err := d.RunProgram("sum", mustProg(t), "main", nil, 0, []int64{5000},
			func(r ProgramResult) { finished = k.Now() }); err != nil {
			t.Fatal(err)
		}
		k.RunUntil(sim.Hour)
		if finished < 0 {
			t.Fatal("never finished")
		}
		return finished
	}
	fast := run(LaptopSpec())       // 500 MIPS
	slow := run(AromaAdapterSpec()) // 200 MIPS
	if slow <= fast {
		t.Fatalf("adapter (%v) should be slower than laptop (%v)", slow, fast)
	}
	// Same fuel, so the ratio tracks the MIPS ratio.
	ratio := float64(slow) / float64(fast)
	if ratio < 2.0 || ratio > 3.0 {
		t.Fatalf("latency ratio = %v, want ~2.5", ratio)
	}
}

func TestRunProgramMemoryExhaustion(t *testing.T) {
	k := sim.New(1)
	spec := PDASpec()
	spec.MemBytes = 1 << 10 // 1 KB: far below the VM footprint
	d := New(k, spec)
	_, err := d.RunProgram("sum", mustProg(t), "main", nil, 0, []int64{1}, nil)
	if !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("err = %v, want out of memory", err)
	}
	if d.memUsed != 0 {
		t.Fatal("failed load leaked memory")
	}
}

func TestRunProgramVMFaultStillDelivered(t *testing.T) {
	k := sim.New(1)
	d := New(k, LaptopSpec())
	bad, err := mobilecode.Assemble("div0", "push 1\npush 0\ndiv\nhalt")
	if err != nil {
		t.Fatal(err)
	}
	var got ProgramResult
	if _, err := d.RunProgram("div0", bad, "main", nil, 0, nil,
		func(r ProgramResult) { got = r }); err != nil {
		t.Fatal(err)
	}
	k.RunUntil(sim.Minute)
	if !errors.Is(got.Err, mobilecode.ErrDivByZero) {
		t.Fatalf("err = %v", got.Err)
	}
	if d.memUsed != 0 {
		t.Fatal("fault leaked memory")
	}
}

func TestRunProgramAbort(t *testing.T) {
	k := sim.New(1)
	d := New(k, AromaAdapterSpec())
	var got ProgramResult
	task, err := d.RunProgram("sum", mustProg(t), "main", nil, 0, []int64{100000},
		func(r ProgramResult) { got = r })
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Abort(task.ID); err != nil {
		t.Fatal(err)
	}
	k.RunUntil(sim.Minute)
	if !errors.Is(got.Err, ErrAborted) {
		t.Fatalf("err = %v, want aborted", got.Err)
	}
	if d.memUsed != 0 {
		t.Fatal("abort leaked memory")
	}
}

func TestRunProgramChargesFuelProportionalTime(t *testing.T) {
	k := sim.New(1)
	d := New(k, LaptopSpec())
	var short, long sim.Time
	d.RunProgram("short", mustProg(t), "main", nil, 0, []int64{10},
		func(r ProgramResult) { short = r.Task.Finished - r.Task.Submitted })
	k.RunUntil(sim.Minute)
	d.RunProgram("long", mustProg(t), "main", nil, 0, []int64{10000},
		func(r ProgramResult) { long = r.Task.Finished - r.Task.Submitted })
	k.RunUntil(2 * sim.Minute)
	if long < 100*short {
		t.Fatalf("1000x the loop iterations should cost >>100x the time: %v vs %v", short, long)
	}
}

func TestProgramFootprintScales(t *testing.T) {
	small := mustProg(t)
	if ProgramFootprint(small) <= VMBaseFootprintBytes {
		t.Fatal("footprint must exceed the VM base")
	}
	big := &mobilecode.Program{Name: "big", Entry: map[string]int{"main": 0}}
	for i := 0; i < 1000; i++ {
		big.Code = append(big.Code, mobilecode.Instr{Op: mobilecode.OpHalt})
	}
	if ProgramFootprint(big) <= ProgramFootprint(small) {
		t.Fatal("bigger program should have bigger footprint")
	}
}

func TestRunProgramOutOfFuelDelivered(t *testing.T) {
	k := sim.New(1)
	d := New(k, LaptopSpec())
	loop, err := mobilecode.Assemble("spin", "loop:\n\tjmp loop")
	if err != nil {
		t.Fatal(err)
	}
	var got ProgramResult
	if _, err := d.RunProgram("spin", loop, "main", nil, 5000, nil,
		func(r ProgramResult) { got = r }); err != nil {
		t.Fatal(err)
	}
	k.RunUntil(sim.Hour)
	if !errors.Is(got.Err, mobilecode.ErrOutOfFuel) {
		t.Fatalf("err = %v, want out of fuel", got.Err)
	}
	if got.Result.FuelUsed != 5000 {
		t.Fatalf("fuel used = %d", got.Result.FuelUsed)
	}
}

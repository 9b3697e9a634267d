package device

import (
	"errors"
	"testing"

	"aroma/internal/sim"
)

func TestMemAccounting(t *testing.T) {
	d := New(sim.New(1), AromaAdapterSpec())
	total := d.spec.MemBytes
	if d.MemFree() != total || d.memUsed != 0 {
		t.Fatal("fresh device memory wrong")
	}
	if err := d.AllocMem(total / 2); err != nil {
		t.Fatal(err)
	}
	if d.memUsed != total/2 {
		t.Fatalf("used = %d", d.memUsed)
	}
	if err := d.AllocMem(total); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("overcommit err = %v", err)
	}
	if d.MemFailures != 1 {
		t.Fatalf("failures = %d", d.MemFailures)
	}
	d.FreeMem(total) // over-free clamps
	if d.memUsed != 0 {
		t.Fatalf("after free used = %d", d.memUsed)
	}
	if err := d.AllocMem(-1); err == nil {
		t.Fatal("negative alloc accepted")
	}
}

func TestStorageFiles(t *testing.T) {
	d := New(sim.New(1), AromaAdapterSpec())
	if err := d.StoreFile("slides/intro.ppt", 10<<20); err != nil {
		t.Fatal(err)
	}
	if err := d.StoreFile("slides/demo.ppt", 5<<20); err != nil {
		t.Fatal(err)
	}
	if err := d.StoreFile("notes.txt", 1<<10); err != nil {
		t.Fatal(err)
	}
	if d.stoUsed != 15<<20|1<<10 && d.stoUsed != (10<<20)+(5<<20)+(1<<10) {
		t.Fatalf("sto used = %d", d.stoUsed)
	}
	if err := d.StoreFile("slides/intro.ppt", 1); !errors.Is(err, ErrFileExists) {
		t.Fatalf("dup err = %v", err)
	}
}

func TestStorageExhaustion(t *testing.T) {
	d := New(sim.New(1), PDASpec()) // 8 MB
	if err := d.StoreFile("big", 9<<20); !errors.Is(err, ErrOutOfStorage) {
		t.Fatalf("err = %v", err)
	}
	if d.StoFailures != 1 {
		t.Fatalf("failures = %d", d.StoFailures)
	}
	if err := d.StoreFile("", 5); err == nil {
		t.Fatal("empty path accepted")
	}
	if err := d.StoreFile("x", -5); err == nil {
		t.Fatal("negative size accepted")
	}
}

func TestTaskExecutionTiming(t *testing.T) {
	k := sim.New(1)
	d := New(k, AromaAdapterSpec()) // 200 MIPS
	var finished *Task
	d.Submit("index", 100, func(t *Task) { finished = t }) // 100 Mcycles / 200 MIPS = 0.5s
	k.RunUntil(10 * sim.Second)
	if finished == nil || finished.State != TaskDone {
		t.Fatal("task did not finish")
	}
	if (finished.Finished - finished.Submitted) != 500*sim.Millisecond {
		t.Fatalf("latency = %v, want 500ms", (finished.Finished - finished.Submitted))
	}
	if d.TasksRun != 1 {
		t.Fatalf("TasksRun = %d", d.TasksRun)
	}
}

func TestSingleThreadedSerializes(t *testing.T) {
	k := sim.New(1)
	d := New(k, PDASpec()) // single-threaded, 20 MIPS
	var order []string
	d.Submit("a", 20, func(t *Task) { order = append(order, t.Name) }) // 1s
	d.Submit("b", 20, func(t *Task) { order = append(order, t.Name) }) // next 1s
	if len(d.running) != 1 || len(d.queue) != 1 {
		t.Fatalf("run=%d queue=%d", len(d.running), len(d.queue))
	}
	k.RunUntil(90 * sim.Second)
	if len(order) != 2 || order[0] != "a" || order[1] != "b" {
		t.Fatalf("order = %v", order)
	}
}

func TestMultiThreadedRunsConcurrently(t *testing.T) {
	k := sim.New(1)
	d := New(k, LaptopSpec())
	d.Submit("a", 500, nil)
	d.Submit("b", 500, nil)
	if len(d.running) != 2 || len(d.queue) != 0 {
		t.Fatalf("run=%d queue=%d", len(d.running), len(d.queue))
	}
	k.RunUntil(sim.Minute)
	if d.TasksRun != 2 {
		t.Fatalf("TasksRun = %d", d.TasksRun)
	}
}

func TestAbortRunningTask(t *testing.T) {
	k := sim.New(1)
	d := New(k, LaptopSpec())
	var aborted *Task
	task := d.Submit("hang", 1e9, func(t *Task) { aborted = t }) // ~forever
	k.RunUntil(sim.Second)
	if err := d.Abort(task.ID); err != nil {
		t.Fatal(err)
	}
	if aborted == nil || aborted.State != TaskAborted {
		t.Fatal("abort callback wrong")
	}
	if d.TasksAborted != 1 || len(d.running) != 0 {
		t.Fatal("abort bookkeeping wrong")
	}
	k.RunUntil(sim.Hour)
	if d.TasksRun != 0 {
		t.Fatal("aborted task completed anyway")
	}
}

func TestAbortQueuedTaskUnblocksNothing(t *testing.T) {
	k := sim.New(1)
	d := New(k, LaptopSpec())
	running := d.Submit("long", 5000, nil) // 10s at 500 MIPS
	_ = running
	queued := d.Submit("wait", 100, nil)
	// Multi-threaded spec runs both; switch to single-threaded scenario:
	_ = queued
	if err := d.Abort(queued.ID); err != nil {
		t.Fatal(err)
	}
	if queued.State != TaskAborted {
		t.Fatal("queued task not aborted")
	}
}

func TestAbortQueuedOnSingleThreaded(t *testing.T) {
	k := sim.New(1)
	d := New(k, Spec{Name: "st", MemBytes: 1, StoBytes: 1, ExeMIPS: 10, Exec: SingleThreaded, AllowAbort: true})
	d.Submit("first", 100, nil) // 10s
	var secondDone bool
	second := d.Submit("second", 10, func(t *Task) { secondDone = t.State == TaskAborted })
	if err := d.Abort(second.ID); err != nil {
		t.Fatal(err)
	}
	if !secondDone {
		t.Fatal("queued abort callback missing")
	}
	if len(d.queue) != 0 {
		t.Fatal("queue not cleaned")
	}
	k.RunUntil(sim.Minute)
	if d.TasksRun != 1 {
		t.Fatalf("TasksRun = %d", d.TasksRun)
	}
}

func TestAbortForbiddenOnPDA(t *testing.T) {
	k := sim.New(1)
	d := New(k, PDASpec())
	task := d.Submit("stuck", 1e6, nil)
	if err := d.Abort(task.ID); !errors.Is(err, ErrAbortForbidden) {
		t.Fatalf("err = %v", err)
	}
}

func TestAbortUnknownTask(t *testing.T) {
	d := New(sim.New(1), LaptopSpec())
	if err := d.Abort(999); !errors.Is(err, ErrNoSuchTask) {
		t.Fatalf("err = %v", err)
	}
}

func TestDoubleAbort(t *testing.T) {
	k := sim.New(1)
	d := New(k, LaptopSpec())
	task := d.Submit("x", 1e6, nil)
	if err := d.Abort(task.ID); err != nil {
		t.Fatal(err)
	}
	if err := d.Abort(task.ID); !errors.Is(err, ErrNoSuchTask) {
		t.Fatalf("second abort err = %v", err)
	}
}

func TestUILatencyGrowsWithLoad(t *testing.T) {
	k := sim.New(1)
	d := New(k, AromaAdapterSpec())
	idle := d.UILatency()
	if idle != d.spec.UI.BaseLatency {
		t.Fatalf("idle latency = %v", idle)
	}
	d.Submit("bg1", 1e6, nil)
	d.Submit("bg2", 1e6, nil)
	if d.UILatency() <= idle {
		t.Fatal("latency did not grow with load")
	}
}

func TestUISpecQueries(t *testing.T) {
	ui := LaptopSpec().UI
	if !ui.HasInput("keyboard") || ui.HasInput("voice") {
		t.Fatal("input methods wrong")
	}
}

func TestTaskStateStrings(t *testing.T) {
	for _, s := range []TaskState{TaskQueued, TaskRunning, TaskDone, TaskAborted} {
		if s.String() == "" {
			t.Fatal("empty state name")
		}
	}
}

func TestDeviceString(t *testing.T) {
	d := New(sim.New(1), AromaAdapterSpec())
	if d.String() == "" {
		t.Fatal("empty String")
	}
}

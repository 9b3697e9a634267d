package mobilecode

import (
	"errors"
	"slices"
	"testing"
)

// mustAssemble assembles or fails the test.
func mustAssemble(t *testing.T, src string) *Program {
	t.Helper()
	p, err := Assemble("test", src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func run(t *testing.T, src, entry string, args ...int64) Result {
	t.Helper()
	p := mustAssemble(t, src)
	res, err := NewVM().Run(p, entry, args...)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestArithmetic(t *testing.T) {
	cases := []struct {
		src  string
		want int64
	}{
		{"push 2\npush 3\nadd\nhalt", 5},
		{"push 10\npush 4\nsub\nhalt", 6},
		{"push 6\npush 7\nmul\nhalt", 42},
		{"push 20\npush 6\ndiv\nhalt", 3},
		{"push 20\npush 6\nmod\nhalt", 2},
		{"push 5\nneg\nhalt", -5},
		{"push 3\npush 3\neq\nhalt", 1},
		{"push 3\npush 4\nne\nhalt", 1},
		{"push 3\npush 4\nlt\nhalt", 1},
		{"push 3\npush 4\ngt\nhalt", 0},
		{"push 4\npush 4\nle\nhalt", 1},
		{"push 5\npush 4\nge\nhalt", 1},
		{"push 1\npush 0\nand\nhalt", 0},
		{"push 1\npush 0\nor\nhalt", 1},
		{"push 0\nnot\nhalt", 1},
	}
	for i, c := range cases {
		if got := run(t, c.src, "main").Top(); got != c.want {
			t.Errorf("case %d: top = %d, want %d", i, got, c.want)
		}
	}
}

func TestStackOps(t *testing.T) {
	res := run(t, "push 1\npush 2\nswap\nhalt", "main")
	if len(res.Stack) != 2 || res.Stack[0] != 2 || res.Stack[1] != 1 {
		t.Fatalf("swap: %v", res.Stack)
	}
	res = run(t, "push 7\ndup\nadd\nhalt", "main")
	if res.Top() != 14 {
		t.Fatalf("dup/add: %d", res.Top())
	}
	res = run(t, "push 1\npush 2\npop\nhalt", "main")
	if len(res.Stack) != 1 || res.Top() != 1 {
		t.Fatalf("pop: %v", res.Stack)
	}
}

func TestLocalsAndArgs(t *testing.T) {
	// f(a, b) = a*10 + b, args pre-pushed deepest-first.
	src := `
func main:
	store 1   ; b
	store 0   ; a
	load 0
	push 10
	mul
	load 1
	add
	halt`
	if got := run(t, src, "main", 4, 2).Top(); got != 42 {
		t.Fatalf("got %d", got)
	}
}

func TestLoopSum(t *testing.T) {
	// sum 1..n
	src := `
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
	if got := run(t, src, "main", 10).Top(); got != 55 {
		t.Fatalf("sum(10) = %d", got)
	}
	if got := run(t, src, "main", 100).Top(); got != 5050 {
		t.Fatalf("sum(100) = %d", got)
	}
}

func TestCallRet(t *testing.T) {
	src := `
func main:
	push 5
	call double
	push 1
	add
	halt
func double:
	push 2
	mul
	ret`
	if got := run(t, src, "main").Top(); got != 11 {
		t.Fatalf("got %d", got)
	}
}

func TestMultipleEntryPoints(t *testing.T) {
	src := `
func inc:
	push 1
	add
	ret
func dec:
	push 1
	sub
	ret`
	p := mustAssemble(t, src)
	vm := NewVM()
	r1, err := vm.Run(p, "inc", 10)
	if err != nil || r1.Top() != 11 {
		t.Fatalf("inc: %v %d", err, r1.Top())
	}
	r2, err := vm.Run(p, "dec", 10)
	if err != nil || r2.Top() != 9 {
		t.Fatalf("dec: %v %d", err, r2.Top())
	}
	if _, err := vm.Run(p, "nope"); !errors.Is(err, ErrNoEntry) {
		t.Fatalf("missing entry err = %v", err)
	}
}

func TestOutOfFuel(t *testing.T) {
	p := mustAssemble(t, "loop:\n\tjmp loop")
	_, err := newVM(1000).Run(p, "main")
	if !errors.Is(err, ErrOutOfFuel) {
		t.Fatalf("err = %v", err)
	}
	res, err := NewVM().Run(p, "main")
	if !errors.Is(err, ErrOutOfFuel) || res.FuelUsed != Fuel {
		t.Fatalf("NewVM: err = %v after %d fuel, want ErrOutOfFuel after %d", err, res.FuelUsed, Fuel)
	}
}

func TestFuelAccounting(t *testing.T) {
	p := mustAssemble(t, "push 1\npush 2\nadd\nhalt")
	res, err := NewVM().Run(p, "main")
	if err != nil {
		t.Fatal(err)
	}
	if res.FuelUsed != 4 {
		t.Fatalf("fuel = %d, want 4", res.FuelUsed)
	}
}

func TestDivByZero(t *testing.T) {
	p := mustAssemble(t, "push 1\npush 0\ndiv\nhalt")
	if _, err := NewVM().Run(p, "main"); !errors.Is(err, ErrDivByZero) {
		t.Fatalf("err = %v", err)
	}
	p = mustAssemble(t, "push 1\npush 0\nmod\nhalt")
	if _, err := NewVM().Run(p, "main"); !errors.Is(err, ErrDivByZero) {
		t.Fatalf("err = %v", err)
	}
}

func TestStackUnderflow(t *testing.T) {
	p := mustAssemble(t, "add\nhalt")
	if _, err := NewVM().Run(p, "main"); !errors.Is(err, ErrStackUnderflow) {
		t.Fatalf("err = %v", err)
	}
}

func TestStackOverflow(t *testing.T) {
	src := `
loop:
	push 1
	jmp loop`
	p := mustAssemble(t, src)
	if _, err := newVM(1<<20).Run(p, "main"); !errors.Is(err, ErrStackOverflow) {
		t.Fatalf("err = %v", err)
	}
}

func TestCallDepthLimit(t *testing.T) {
	src := `
func main:
	call main`
	p := mustAssemble(t, src)
	if _, err := newVM(1<<20).Run(p, "main"); !errors.Is(err, ErrCallDepth) {
		t.Fatalf("err = %v", err)
	}
}

func TestSyscall(t *testing.T) {
	src := `
func main:
	push 7
	push 35
	push 2      ; argc
	sys "math.add"
	halt`
	p := mustAssemble(t, src)
	// The VM has no host: the syscall faults before it pops anything.
	res, err := NewVM().Run(p, "main")
	if !errors.Is(err, ErrNoHost) {
		t.Fatalf("err = %v", err)
	}
	if want := []int64{7, 35, 2}; !slices.Equal(res.Stack, want) {
		t.Fatalf("stack = %v, want %v", res.Stack, want)
	}
}

func TestSyscallWithoutHost(t *testing.T) {
	p := mustAssemble(t, "push 0\nsys \"x\"\nhalt")
	if _, err := NewVM().Run(p, "main"); !errors.Is(err, ErrNoHost) {
		t.Fatalf("err = %v", err)
	}
}

// A syscall fault ends the run: nothing after the sys executes.
func TestSyscallError(t *testing.T) {
	p := mustAssemble(t, "push 0\nsys \"boom\"\npush 9\nhalt")
	res, err := NewVM().Run(p, "main")
	if !errors.Is(err, ErrNoHost) {
		t.Fatalf("err = %v", err)
	}
	if res.Top() == 9 {
		t.Fatal("run continued past a faulted syscall")
	}
}

func TestRunOffEndHalts(t *testing.T) {
	p := mustAssemble(t, "push 3")
	res, err := NewVM().Run(p, "main")
	if err != nil || res.Top() != 3 {
		t.Fatalf("res=%v err=%v", res, err)
	}
}

func TestValidateRejectsBadJump(t *testing.T) {
	p := &Program{Code: []Instr{{Op: OpJmp, Arg: 99}}, Entry: map[string]int{"main": 0}}
	if err := p.Validate(); err == nil {
		t.Fatal("bad jump accepted")
	}
	if _, err := NewVM().Run(p, "main"); !errors.Is(err, ErrBadProgram) {
		t.Fatalf("Run err = %v", err)
	}
}

func TestValidateRejectsBadSlotAndEntry(t *testing.T) {
	p := &Program{Code: []Instr{{Op: OpLoad, Arg: MaxLocals}}, Entry: map[string]int{"main": 0}}
	if err := p.Validate(); err == nil {
		t.Fatal("bad slot accepted")
	}
	p = &Program{Code: []Instr{{Op: OpHalt}}, Entry: map[string]int{"main": 7}}
	if err := p.Validate(); err == nil {
		t.Fatal("bad entry accepted")
	}
}

func TestOpStringNames(t *testing.T) {
	if OpPush.String() != "push" || OpSys.String() != "sys" {
		t.Fatal("op names wrong")
	}
	if Op(200).String() == "" {
		t.Fatal("unknown op empty string")
	}
}

func TestResultTopEmpty(t *testing.T) {
	if (Result{}).Top() != 0 {
		t.Fatal("empty Top should be 0")
	}
}

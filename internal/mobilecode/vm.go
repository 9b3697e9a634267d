// Package mobilecode implements the "mobile code and data" substrate the
// paper lists as a core pervasive-computing research area: a small,
// sandboxed stack virtual machine whose programs can be assembled from
// text, serialized to a compact wire format, shipped across the simulated
// network, and executed on any appliance.
//
// It plays the role Java bytecode and Jini downloadable proxies play in
// the Aroma prototype: a service registers a proxy program with the
// lookup service; clients download the proxy and run it locally.
//
// Safety properties (the reason information appliances can run code that
// arrives over the air):
//
//   - fuel-metered execution — runaway or malicious code halts with
//     ErrOutOfFuel rather than hanging the appliance,
//   - bounded stack and memory,
//   - no host access: OpSys stays in the instruction set and the wire
//     format, but every syscall faults with ErrNoHost.
package mobilecode

import (
	"errors"
	"fmt"
)

// Op is a VM opcode.
type Op uint8

// The instruction set. Conventions: the stack grows up; binary ops pop
// right then left and push the result; comparisons push 1 or 0.
const (
	OpHalt Op = iota
	OpPush    // push immediate Arg
	OpPop
	OpDup
	OpSwap
	OpAdd
	OpSub
	OpMul
	OpDiv // integer division; division by zero faults
	OpMod
	OpNeg
	OpEq
	OpNe
	OpLt
	OpGt
	OpLe
	OpGe
	OpAnd // logical: nonzero -> 1
	OpOr
	OpNot
	OpJmp   // absolute jump to Arg
	OpJz    // pop; jump to Arg if zero
	OpJnz   // pop; jump to Arg if nonzero
	OpLoad  // push local slot Arg
	OpStore // pop into local slot Arg
	OpCall  // call function at Arg; return address pushed on call stack
	OpRet   // return to caller (or halt if at top frame)
	OpSys   // syscall: Arg is the const-pool index of the name; always
	//         faults with ErrNoHost
	numOps
)

var opNames = [...]string{
	"halt", "push", "pop", "dup", "swap", "add", "sub", "mul", "div", "mod",
	"neg", "eq", "ne", "lt", "gt", "le", "ge", "and", "or", "not",
	"jmp", "jz", "jnz", "load", "store", "call", "ret", "sys",
}

// String returns the assembler mnemonic for the opcode.
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// hasArg reports whether the opcode carries an immediate argument.
func (o Op) hasArg() bool {
	switch o {
	case OpPush, OpJmp, OpJz, OpJnz, OpLoad, OpStore, OpCall, OpSys:
		return true
	}
	return false
}

// Instr is one instruction.
type Instr struct {
	Op  Op
	Arg int64
}

// Program is a unit of mobile code: instructions, a string constant pool
// (syscall names and service identifiers), and named entry points.
type Program struct {
	Name   string
	Code   []Instr
	Consts []string
	Entry  map[string]int // function name -> code offset
}

// Validate checks structural integrity: opcodes in range, jump and call
// targets inside the code, const and entry references valid.
func (p *Program) Validate() error {
	n := len(p.Code)
	for i, in := range p.Code {
		if in.Op >= numOps {
			return fmt.Errorf("mobilecode: bad opcode %d at %d", in.Op, i)
		}
		switch in.Op {
		case OpJmp, OpJz, OpJnz, OpCall:
			if in.Arg < 0 || in.Arg >= int64(n) {
				return fmt.Errorf("mobilecode: jump target %d out of range at %d", in.Arg, i)
			}
		case OpSys:
			if in.Arg < 0 || in.Arg >= int64(len(p.Consts)) {
				return fmt.Errorf("mobilecode: syscall const %d out of range at %d", in.Arg, i)
			}
		case OpLoad, OpStore:
			if in.Arg < 0 || in.Arg >= MaxLocals {
				return fmt.Errorf("mobilecode: local slot %d out of range at %d", in.Arg, i)
			}
		}
	}
	for name, off := range p.Entry {
		if off < 0 || off >= n {
			return fmt.Errorf("mobilecode: entry %q offset %d out of range", name, off)
		}
	}
	return nil
}

// Execution limits.
const (
	MaxStack     = 1024
	MaxCallDepth = 128
	MaxLocals    = 64
	Fuel         = 100_000 // instructions one Run may execute
)

// Errors reported by the VM.
var (
	ErrOutOfFuel      = errors.New("mobilecode: out of fuel")
	ErrStackOverflow  = errors.New("mobilecode: stack overflow")
	ErrStackUnderflow = errors.New("mobilecode: stack underflow")
	ErrCallDepth      = errors.New("mobilecode: call depth exceeded")
	ErrDivByZero      = errors.New("mobilecode: division by zero")
	ErrNoEntry        = errors.New("mobilecode: no such entry point")
	ErrNoHost         = errors.New("mobilecode: syscall without host")
	ErrBadProgram     = errors.New("mobilecode: invalid program")
)

// Result is the outcome of one VM run.
type Result struct {
	Stack    []int64 // remaining operand stack, bottom first
	FuelUsed int64
}

// Top returns the top-of-stack value, or 0 for an empty stack.
func (r Result) Top() int64 {
	if len(r.Stack) == 0 {
		return 0
	}
	return r.Stack[len(r.Stack)-1]
}

// VM executes programs. The zero value is not usable; create with NewVM.
type VM struct {
	fuel int64
}

// NewVM creates a VM whose runs may spend Fuel.
func NewVM() *VM { return newVM(Fuel) }

// newVM creates a VM with the given fuel budget.
func newVM(fuel int64) *VM { return &VM{fuel: fuel} }

// Run executes the entry point with the given arguments pre-pushed
// (deepest first) and runs until OpHalt, top-frame OpRet, or a fault.
func (v *VM) Run(p *Program, entry string, args ...int64) (Result, error) {
	if err := p.Validate(); err != nil {
		return Result{}, fmt.Errorf("%w: %v", ErrBadProgram, err)
	}
	pc, ok := p.Entry[entry]
	if !ok {
		return Result{}, fmt.Errorf("%w: %q", ErrNoEntry, entry)
	}
	stack := make([]int64, 0, 64)
	stack = append(stack, args...)
	locals := make([]int64, MaxLocals)
	var callStack []int
	fuel := v.fuel
	used := int64(0)

	push := func(x int64) error {
		if len(stack) >= MaxStack {
			return ErrStackOverflow
		}
		stack = append(stack, x)
		return nil
	}
	pop := func() (int64, error) {
		if len(stack) == 0 {
			return 0, ErrStackUnderflow
		}
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		return x, nil
	}
	b2i := func(b bool) int64 {
		if b {
			return 1
		}
		return 0
	}

	for {
		if used >= fuel {
			return Result{Stack: stack, FuelUsed: used}, ErrOutOfFuel
		}
		used++
		if pc < 0 || pc >= len(p.Code) {
			// Running off the end is an implicit halt.
			return Result{Stack: stack, FuelUsed: used}, nil
		}
		in := p.Code[pc]
		pc++
		var err error
		switch in.Op {
		case OpHalt:
			return Result{Stack: stack, FuelUsed: used}, nil
		case OpPush:
			err = push(in.Arg)
		case OpPop:
			_, err = pop()
		case OpDup:
			var x int64
			if x, err = pop(); err == nil {
				if err = push(x); err == nil {
					err = push(x)
				}
			}
		case OpSwap:
			var a, b int64
			if b, err = pop(); err == nil {
				if a, err = pop(); err == nil {
					if err = push(b); err == nil {
						err = push(a)
					}
				}
			}
		case OpAdd, OpSub, OpMul, OpDiv, OpMod, OpEq, OpNe, OpLt, OpGt, OpLe, OpGe, OpAnd, OpOr:
			var a, b int64
			if b, err = pop(); err != nil {
				break
			}
			if a, err = pop(); err != nil {
				break
			}
			var r int64
			switch in.Op {
			case OpAdd:
				r = a + b
			case OpSub:
				r = a - b
			case OpMul:
				r = a * b
			case OpDiv:
				if b == 0 {
					err = ErrDivByZero
				} else {
					r = a / b
				}
			case OpMod:
				if b == 0 {
					err = ErrDivByZero
				} else {
					r = a % b
				}
			case OpEq:
				r = b2i(a == b)
			case OpNe:
				r = b2i(a != b)
			case OpLt:
				r = b2i(a < b)
			case OpGt:
				r = b2i(a > b)
			case OpLe:
				r = b2i(a <= b)
			case OpGe:
				r = b2i(a >= b)
			case OpAnd:
				r = b2i(a != 0 && b != 0)
			case OpOr:
				r = b2i(a != 0 || b != 0)
			}
			if err == nil {
				err = push(r)
			}
		case OpNeg:
			var x int64
			if x, err = pop(); err == nil {
				err = push(-x)
			}
		case OpNot:
			var x int64
			if x, err = pop(); err == nil {
				err = push(b2i(x == 0))
			}
		case OpJmp:
			pc = int(in.Arg)
		case OpJz:
			var x int64
			if x, err = pop(); err == nil && x == 0 {
				pc = int(in.Arg)
			}
		case OpJnz:
			var x int64
			if x, err = pop(); err == nil && x != 0 {
				pc = int(in.Arg)
			}
		case OpLoad:
			err = push(locals[in.Arg])
		case OpStore:
			var x int64
			if x, err = pop(); err == nil {
				locals[in.Arg] = x
			}
		case OpCall:
			if len(callStack) >= MaxCallDepth {
				err = ErrCallDepth
				break
			}
			callStack = append(callStack, pc)
			pc = int(in.Arg)
		case OpRet:
			if len(callStack) == 0 {
				return Result{Stack: stack, FuelUsed: used}, nil
			}
			pc = callStack[len(callStack)-1]
			callStack = callStack[:len(callStack)-1]
		case OpSys:
			err = ErrNoHost
		default:
			err = fmt.Errorf("mobilecode: unimplemented opcode %v", in.Op)
		}
		if err != nil {
			return Result{Stack: stack, FuelUsed: used}, err
		}
	}
}

package mobilecode

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

// Property: execution is deterministic — same program, same entry, same
// args, same fuel yield identical results and fuel consumption.
func TestPropertyExecutionDeterministic(t *testing.T) {
	p := mustAssemble(t, fibSrc)
	f := func(nRaw uint8, fuelRaw uint16) bool {
		n := int64(nRaw % 40)
		fuel := int64(fuelRaw%5000) + 100
		r1, e1 := newVM(fuel).Run(p, "main", n)
		r2, e2 := newVM(fuel).Run(p, "main", n)
		if (e1 == nil) != (e2 == nil) {
			return false
		}
		if r1.FuelUsed != r2.FuelUsed {
			return false
		}
		if len(r1.Stack) != len(r2.Stack) {
			return false
		}
		for i := range r1.Stack {
			if r1.Stack[i] != r2.Stack[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(91))}); err != nil {
		t.Fatal(err)
	}
}

// Property: fuel monotonicity — if a program completes within fuel F, it
// completes with the identical result for any fuel budget >= F; if it
// runs out at F, it consumed exactly F.
func TestPropertyFuelMonotone(t *testing.T) {
	p := mustAssemble(t, fibSrc)
	f := func(nRaw uint8, extraRaw uint16) bool {
		n := int64(nRaw % 60)
		res, err := NewVM().Run(p, "main", n)
		if err != nil {
			return false
		}
		// Any larger budget gives the same outcome.
		extra := int64(extraRaw)
		res2, err2 := newVM(res.FuelUsed+extra+1).Run(p, "main", n)
		if err2 != nil || res2.Top() != res.Top() || res2.FuelUsed != res.FuelUsed {
			return false
		}
		// One unit less than needed must fault with ErrOutOfFuel.
		if res.FuelUsed > 1 {
			res3, err3 := newVM(res.FuelUsed-1).Run(p, "main", n)
			if !errors.Is(err3, ErrOutOfFuel) {
				return false
			}
			if res3.FuelUsed != res.FuelUsed-1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(92))}); err != nil {
		t.Fatal(err)
	}
}

// Property: the VM never panics on arbitrary (structurally valid)
// programs — every outcome is a Result plus a typed error.
func TestPropertyVMTotality(t *testing.T) {
	f := func(raw []uint16, args []int64) bool {
		if len(raw) == 0 {
			return true
		}
		p := &Program{Name: "fuzz", Entry: map[string]int{"main": 0}, Consts: []string{"x"}}
		for _, r := range raw {
			op := Op(r % uint16(numOps))
			in := Instr{Op: op}
			if op.hasArg() {
				switch op {
				case OpJmp, OpJz, OpJnz, OpCall:
					in.Arg = int64(int(r/7) % len(raw))
				case OpSys:
					in.Arg = 0
				case OpLoad, OpStore:
					in.Arg = int64(r % MaxLocals)
				default:
					in.Arg = int64(r) - 30000
				}
			}
			p.Code = append(p.Code, in)
		}
		if err := p.Validate(); err != nil {
			return true // invalid programs are rejected before running
		}
		if len(args) > 16 {
			args = args[:16]
		}
		_, _ = newVM(20_000).Run(p, "main", args...) // must not panic
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400, Rand: rand.New(rand.NewSource(93))}); err != nil {
		t.Fatal(err)
	}
}

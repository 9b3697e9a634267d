package mobilecode

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

const fibSrc = `
; fib(n) iteratively
func main:
	store 0      ; n
	push 0
	store 1      ; a
	push 1
	store 2      ; b
loop:
	load 0
	jz done
	load 1
	load 2
	add          ; a+b
	load 2
	store 1      ; a = b
	store 2      ; b = a+b
	load 0
	push 1
	sub
	store 0
	jmp loop
done:
	load 1
	halt`

func TestEncodeDecodeRoundTrip(t *testing.T) {
	p := mustAssemble(t, fibSrc)
	data, err := Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	q, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p.Code, q.Code) {
		t.Fatal("code differs after round trip")
	}
	if !reflect.DeepEqual(p.Entry, q.Entry) {
		t.Fatal("entries differ after round trip")
	}
	if !reflect.DeepEqual(p.Consts, q.Consts) && !(len(p.Consts) == 0 && len(q.Consts) == 0) {
		t.Fatal("consts differ after round trip")
	}
	if q.Name != "test" {
		t.Fatalf("name = %q", q.Name)
	}
	// The decoded program must behave identically.
	r1, err1 := NewVM().Run(p, "main", 10)
	r2, err2 := NewVM().Run(q, "main", 10)
	if err1 != nil || err2 != nil || r1.Top() != r2.Top() {
		t.Fatalf("behaviour differs: %v/%v %d/%d", err1, err2, r1.Top(), r2.Top())
	}
	if r1.Top() != 55 {
		t.Fatalf("fib(10) = %d", r1.Top())
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := Decode([]byte("not a program")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := Decode(nil); err == nil {
		t.Fatal("nil accepted")
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	p := mustAssemble(t, fibSrc)
	data, _ := Encode(p)
	for _, cut := range []int{5, len(data) / 2, len(data) - 1} {
		if _, err := Decode(data[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestDecodeRejectsTrailingBytes(t *testing.T) {
	p := mustAssemble(t, "push 1\nhalt")
	data, _ := Encode(p)
	if _, err := Decode(append(data, 0xFF)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

func TestEncodeRejectsInvalidProgram(t *testing.T) {
	p := &Program{Code: []Instr{{Op: OpJmp, Arg: 42}}}
	if _, err := Encode(p); err == nil {
		t.Fatal("invalid program encoded")
	}
}

func TestEncodeDeterministic(t *testing.T) {
	src := `
func alpha:
	ret
func beta:
	ret
func gamma:
	ret`
	p := mustAssemble(t, src)
	a, _ := Encode(p)
	b, _ := Encode(p)
	if !bytes.Equal(a, b) {
		t.Fatal("encoding not deterministic")
	}
}

func TestDisassembleRoundTrip(t *testing.T) {
	p := mustAssemble(t, fibSrc)
	asm := Disassemble(p)
	q, err := Assemble("test", asm)
	if err != nil {
		t.Fatalf("reassembly failed: %v\n%s", err, asm)
	}
	r1, _ := NewVM().Run(p, "main", 12)
	r2, err := NewVM().Run(q, "main", 12)
	if err != nil || r1.Top() != r2.Top() {
		t.Fatalf("disasm round trip changed behaviour: %v %d vs %d", err, r1.Top(), r2.Top())
	}
}

func TestDisassembleShowsSyscalls(t *testing.T) {
	p := mustAssemble(t, "push 0\nsys \"svc.invoke\"\nhalt")
	asm := Disassemble(p)
	if !strings.Contains(asm, `sys "svc.invoke"`) {
		t.Fatalf("missing syscall in disassembly:\n%s", asm)
	}
}

func TestAssembleErrors(t *testing.T) {
	cases := []string{
		"bogus 1",          // unknown mnemonic
		"push",             // missing arg
		"add 1",            // excess arg
		"jmp nowhere",      // undefined label
		"func a:\nfunc a:", // duplicate func
		"x:\nx:\nhalt",     // duplicate label
		"sys unquoted",     // sys needs quoted name
		".const notquoted", // bad const
		"func :",           // empty func name
		"push notanumber",  // bad int
	}
	for i, src := range cases {
		if _, err := Assemble("bad", src); err == nil {
			t.Errorf("case %d (%q): error expected", i, src)
		}
	}
}

func TestAssembleComments(t *testing.T) {
	p := mustAssemble(t, "; leading comment\npush 1 ; trailing\n\nhalt")
	if len(p.Code) != 2 {
		t.Fatalf("code len = %d", len(p.Code))
	}
}

func TestAssembleNumericJump(t *testing.T) {
	p := mustAssemble(t, "jmp 1\nhalt")
	if p.Code[0].Arg != 1 {
		t.Fatalf("numeric jump arg = %d", p.Code[0].Arg)
	}
}

func TestConstInterning(t *testing.T) {
	p := mustAssemble(t, `
.const "a"
push 0
sys "a"
push 0
sys "b"
push 0
sys "a"
halt`)
	if len(p.Consts) != 2 {
		t.Fatalf("consts = %v, want interned [a b]", p.Consts)
	}
}

// Property: encode/decode round-trips arbitrary valid programs built from
// random (but structurally valid) instructions.
func TestPropertyCodecRoundTrip(t *testing.T) {
	f := func(raw []uint16, nconsts uint8) bool {
		p := &Program{Name: "prop", Entry: map[string]int{}}
		for i := 0; i < int(nconsts%8); i++ {
			p.Consts = append(p.Consts, strings.Repeat("c", i+1))
		}
		for _, r := range raw {
			op := Op(r % uint16(numOps))
			in := Instr{Op: op}
			if op.hasArg() {
				switch op {
				case OpJmp, OpJz, OpJnz, OpCall:
					if len(raw) == 0 {
						return true
					}
					in.Arg = int64(int(r) % max(len(raw), 1))
				case OpSys:
					if len(p.Consts) == 0 {
						in.Op = OpHalt
					} else {
						in.Arg = int64(int(r) % len(p.Consts))
					}
				case OpLoad, OpStore:
					in.Arg = int64(r % MaxLocals)
				default:
					in.Arg = int64(r) - 1000
				}
			}
			p.Code = append(p.Code, in)
		}
		if len(p.Code) > 0 {
			p.Entry["main"] = 0
		}
		data, err := Encode(p)
		if err != nil {
			return false
		}
		q, err := Decode(data)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(p.Code, q.Code)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(21))}); err != nil {
		t.Fatal(err)
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

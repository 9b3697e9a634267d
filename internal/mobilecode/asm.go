package mobilecode

import (
	"fmt"
	"strconv"
	"strings"
)

// Assemble translates textual assembly into a Program.
//
// Syntax, one statement per line:
//
//	; comment (also after statements)
//	label:            define a code label
//	func name:        define an exported entry point (also a label)
//	.const "string"   append to the constant pool (index = order)
//	push 42           immediate instruction
//	jmp  label        control flow by label or absolute offset
//	sys  "net.call"   syscall by constant-pool string (interned on demand)
//	add / ret / ...   zero-argument instructions
//
// Labels are resolved in a second pass.
func Assemble(name, src string) (*Program, error) {
	p := &Program{Name: name, Entry: make(map[string]int)}
	labels := make(map[string]int)
	type fixup struct {
		instr int
		label string
		line  int
	}
	var fixups []fixup

	intern := func(s string) int64 {
		for i, c := range p.Consts {
			if c == s {
				return int64(i)
			}
		}
		p.Consts = append(p.Consts, s)
		return int64(len(p.Consts) - 1)
	}

	lines := strings.Split(src, "\n")
	for ln, raw := range lines {
		line := raw
		if i := strings.Index(line, ";"); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		lineNo := ln + 1

		// Directives.
		if strings.HasPrefix(line, ".const") {
			rest := strings.TrimSpace(strings.TrimPrefix(line, ".const"))
			s, err := strconv.Unquote(rest)
			if err != nil {
				return nil, fmt.Errorf("asm line %d: bad .const %s", lineNo, rest)
			}
			intern(s)
			continue
		}
		if strings.HasPrefix(line, "func ") {
			nameTok := strings.TrimSuffix(strings.TrimSpace(strings.TrimPrefix(line, "func ")), ":")
			if nameTok == "" {
				return nil, fmt.Errorf("asm line %d: empty func name", lineNo)
			}
			if _, dup := p.Entry[nameTok]; dup {
				return nil, fmt.Errorf("asm line %d: duplicate func %q", lineNo, nameTok)
			}
			p.Entry[nameTok] = len(p.Code)
			labels[nameTok] = len(p.Code)
			continue
		}
		if strings.HasSuffix(line, ":") && !strings.ContainsAny(line, " \t") {
			lbl := strings.TrimSuffix(line, ":")
			if _, dup := labels[lbl]; dup {
				return nil, fmt.Errorf("asm line %d: duplicate label %q", lineNo, lbl)
			}
			labels[lbl] = len(p.Code)
			continue
		}

		fields := strings.Fields(line)
		mnem := strings.ToLower(fields[0])
		op, ok := opByName(mnem)
		if !ok {
			return nil, fmt.Errorf("asm line %d: unknown mnemonic %q", lineNo, mnem)
		}
		in := Instr{Op: op}
		if op.hasArg() {
			if len(fields) < 2 {
				return nil, fmt.Errorf("asm line %d: %s needs an argument", lineNo, mnem)
			}
			argTok := strings.Join(fields[1:], " ")
			switch {
			case op == OpSys:
				s, err := strconv.Unquote(argTok)
				if err != nil {
					return nil, fmt.Errorf("asm line %d: sys needs a quoted name", lineNo)
				}
				in.Arg = intern(s)
			default:
				if v, err := strconv.ParseInt(argTok, 10, 64); err == nil {
					in.Arg = v
				} else if op == OpJmp || op == OpJz || op == OpJnz || op == OpCall {
					fixups = append(fixups, fixup{instr: len(p.Code), label: argTok, line: lineNo})
				} else {
					return nil, fmt.Errorf("asm line %d: bad argument %q", lineNo, argTok)
				}
			}
		} else if len(fields) > 1 {
			return nil, fmt.Errorf("asm line %d: %s takes no argument", lineNo, mnem)
		}
		p.Code = append(p.Code, in)
	}

	for _, f := range fixups {
		off, ok := labels[f.label]
		if !ok {
			return nil, fmt.Errorf("asm line %d: undefined label %q", f.line, f.label)
		}
		p.Code[f.instr].Arg = int64(off)
	}
	if len(p.Entry) == 0 && len(p.Code) > 0 {
		p.Entry["main"] = 0
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// opByName maps an assembler mnemonic to its opcode.
func opByName(s string) (Op, bool) {
	for i, n := range opNames {
		if n == s {
			return Op(i), true
		}
	}
	return 0, false
}

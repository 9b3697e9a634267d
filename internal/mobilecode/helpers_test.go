package mobilecode

import (
	"fmt"
	"strings"
)

// Test-only helpers: nothing outside the tests calls these, so they
// live here rather than in the package's API.

// Disassemble renders a program back to readable assembly (labels are
// synthesized as L<offset>; entry points are emitted as func headers).
func Disassemble(p *Program) string {
	var b strings.Builder
	entryAt := make(map[int][]string)
	for name, off := range p.Entry {
		entryAt[off] = append(entryAt[off], name)
	}
	targets := make(map[int]bool)
	for _, in := range p.Code {
		switch in.Op {
		case OpJmp, OpJz, OpJnz, OpCall:
			targets[int(in.Arg)] = true
		}
	}
	for i, c := range p.Consts {
		fmt.Fprintf(&b, ".const %q ; #%d\n", c, i)
	}
	for i, in := range p.Code {
		for _, name := range entryAt[i] {
			fmt.Fprintf(&b, "func %s:\n", name)
		}
		if targets[i] {
			fmt.Fprintf(&b, "L%d:\n", i)
		}
		if in.Op.hasArg() {
			switch in.Op {
			case OpSys:
				fmt.Fprintf(&b, "\tsys %q\n", p.Consts[in.Arg])
			case OpJmp, OpJz, OpJnz, OpCall:
				fmt.Fprintf(&b, "\t%s L%d\n", in.Op, in.Arg)
			default:
				fmt.Fprintf(&b, "\t%s %d\n", in.Op, in.Arg)
			}
		} else {
			fmt.Fprintf(&b, "\t%s\n", in.Op)
		}
	}
	return b.String()
}

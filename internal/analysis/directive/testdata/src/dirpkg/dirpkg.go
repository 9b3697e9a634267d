// Package dirpkg exercises the directive hygiene analyzer. Expected
// diagnostics are asserted in the test body rather than with inline
// markers: an //aroma: directive is a line comment, so any trailing
// marker would be swallowed into its reason text.
package dirpkg

import "sort"

// A typo'd name never matches a rule — it must be rejected, not
// silently ignored.
//aroma:odrered sorted immediately after the loop
func typo(m map[int]string) []int {
	var out []int
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// A known name with no justification is an empty escape hatch and
// must be rejected.
//aroma:ordered
func bare(m map[int]string) int {
	n := 0
	for range m {
		n++
	}
	return n
}

// A well-formed directive: known name, one-line reason. No finding.
func fine(m map[int]string) []int {
	var out []int
	//aroma:ordered keys only; sorted immediately after the loop
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// An unreferenced-export survivor must say why it stays; a bare
// directive keeps nothing and must be rejected.
//aroma:kept
func Survivor() {}

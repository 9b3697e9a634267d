// Package lib is the unreferenced-export guard's fixture: each export
// below is one case the guard must get right.
package lib

// Unused has no reference at all: reported.
func Unused() {}

// TestOnly is referenced only from lib_test.go: reported.
func TestOnly() int { return 1 }

// Recursive only references itself: reported.
func Recursive(n int) int {
	if n <= 0 {
		return 0
	}
	return Recursive(n - 1)
}

// Used is called from another package: not reported.
func Used() int { return 2 }

// Kept has no caller but carries a justified directive: not reported.
//
//aroma:kept fixture case for the directive
func Kept() {}

// Namer is the interface the app calls through.
type Namer interface{ Name() string }

// Impl is used by the app only as a Namer.
type Impl struct{}

// Name satisfies Namer, which the app calls: not reported.
func (Impl) Name() string { return "impl" }

// String satisfies fmt.Stringer, which the standard library calls: not
// reported.
func (Impl) String() string { return "lib.Impl" }

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
func Used() int {
	var s stepper = walker{}
	c := &counter{written: 1, testRead: 2}
	c.written = 3
	bump(&c.addressed)
	c.incremented++
	return c.addressed + c.incremented + s.step()
}

// bump is called by Used: not reported.
func bump(n *int) { *n++ }

// testHelper is called only from lib_test.go: reported.
func testHelper() int { return 4 }

// counter holds one field for each field case.
type counter struct {
	// written is assigned, in a composite literal and by =, but never
	// read: reported.
	written int
	// testRead is read only by lib_test.go: reported.
	testRead int
	// addressed is read through &c.addressed: not reported.
	addressed int
	// incremented is read by c.incremented++: not reported.
	incremented int
	// kept is never read but carries a justified directive: not
	// reported.
	//
	//aroma:kept fixture case for a kept field
	kept int
}

// stepper is the unexported interface Used calls through.
type stepper interface{ step() int }

// walker is used only as a stepper.
type walker struct{}

// step satisfies stepper, which Used calls: not reported.
func (walker) step() int { return 1 }

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

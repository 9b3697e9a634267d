package fault

// Test-only helpers: nothing outside the tests calls these, so they
// live here rather than in the package's API.

// MustParse is Parse for known-good literals; it panics on error.
func MustParse(s string) Plan {
	p, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return p
}

// Injected returns the total occurrences fired so far.
func (in *Injector) Injected() uint64 {
	return in.crashes + in.radioDowns + in.jams + in.partitions + in.outages
}

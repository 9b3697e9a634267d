package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile for it to
// count as measured rather than as a guess at the largest sample.
const minBeyond = 10

// setupFloorS is the smallest change of setup_s, in seconds, that can
// count as a regression: below it, timer and scheduler noise dominate a
// quantity that is itself only a fraction of a second.
const setupFloorS = 0.05

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-quantile of xs (0 < p < 1) and
// whether it is resolved: at least minBeyond samples lie above it.
func percentile(xs []float64, p float64) (float64, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	s := sortedCopy(xs)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	i = max(0, min(i, len(s)-1))
	return s[i], len(s)-1-i >= minBeyond
}

// quartiles returns the first and third quartiles of xs exactly as
// Python's statistics.quantiles(xs, n=4) computes them (the "exclusive"
// method), so spreads read the same here as in any Python check of the
// same values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	const n = 4
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / n
		j = max(1, min(j, ld-1))
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q(1), q(3)
}

// spread is the interquartile range of xs as a share of its median.
func spread(xs []float64) float64 {
	med := median(xs)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(med)
}

// worsening is how much worse b reads than a, as a share of a, for a
// metric where better is "lower" or "higher"; negative when b is better.
func worsening(better string, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / math.Abs(a)
	}
	return (b - a) / math.Abs(a)
}

// exceeds reports whether b is worse than a by more than the metric's
// bound. setup_s changes smaller than setupFloorS never exceed.
func exceeds(m metricDef, a, b float64) bool {
	if m.Name == "setup_s" && math.Abs(b-a) <= setupFloorS {
		return false
	}
	return worsening(m.Better, a, b) > m.Bound
}

// Verdicts of comparing two sets of runs of one metric.
const (
	agreeV      = "agree"
	exceedsV    = "exceeds"
	unresolvedV = "unresolved"
)

// verdict compares the runs of a metric in a parent set (as) and a later
// set (bs). A median within the bound agrees. Runs whose spread is wider
// than the bound cannot show a regression either way, so the comparison
// is unresolved, unless every later run reads better than every parent
// run. Otherwise the later median exceeds the bound.
func verdict(m metricDef, as, bs []float64) string {
	if len(as) == 0 || len(bs) == 0 {
		return unresolvedV
	}
	if allBetter(m.Better, as, bs) {
		return agreeV
	}
	if spread(as) > m.Bound || spread(bs) > m.Bound {
		return unresolvedV
	}
	if exceeds(m, median(as), median(bs)) {
		return exceedsV
	}
	return agreeV
}

// allBetter reports whether every value of bs is better than every
// value of as.
func allBetter(better string, as, bs []float64) bool {
	sa, sb := sortedCopy(as), sortedCopy(bs)
	if better == "higher" {
		return sb[0] > sa[len(sa)-1]
	}
	return sb[len(sb)-1] < sa[0]
}

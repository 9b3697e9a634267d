// Package metrics provides the statistics and text-rendering utilities the
// experiment harness uses: streaming summaries, and fixed-width ASCII
// tables and series for reproducing the paper's figures as terminal
// output.
package metrics

import (
	"fmt"
	"math"
	"strings"
)

// Summary accumulates a stream of float64 observations and reports count,
// mean, variance, min and max in O(1) memory (Welford's algorithm).
type Summary struct {
	n        int
	mean, m2 float64
	min, max float64
}

// Observe adds one observation.
func (s *Summary) Observe(x float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	d := x - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (x - s.mean)
}

// N returns the number of observations.
func (s *Summary) N() int { return s.n }

// Mean returns the arithmetic mean, or 0 with no observations.
func (s *Summary) Mean() float64 { return s.mean }

// Min returns the smallest observation, or 0 with no observations.
func (s *Summary) Min() float64 { return s.min }

// Max returns the largest observation, or 0 with no observations.
func (s *Summary) Max() float64 { return s.max }

// Var returns the sample variance (n-1 denominator), or 0 for n < 2.
func (s *Summary) Var() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// Stddev returns the sample standard deviation.
func (s *Summary) Stddev() float64 { return math.Sqrt(s.Var()) }

// CI95 returns the half-width of a normal-approximation 95% confidence
// interval for the mean.
func (s *Summary) CI95() float64 {
	if s.n < 2 {
		return 0
	}
	return 1.96 * s.Stddev() / math.Sqrt(float64(s.n))
}

// String renders "mean ± ci [min, max] (n)".
func (s *Summary) String() string {
	return fmt.Sprintf("%.4g ± %.2g [%.4g, %.4g] (n=%d)", s.Mean(), s.CI95(), s.Min(), s.Max(), s.n)
}

// Table renders rows with aligned fixed-width columns, suitable for the
// experiment output that mirrors the paper's (qualitative) tables.
type Table struct {
	title   string
	headers []string
	rows    [][]string
	notes   []string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{title: title, headers: headers}
}

// AddRow appends one row; cells are formatted with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmtFloat(v)
		case float32:
			row[i] = fmtFloat(float64(v))
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// AddNote appends a free-text footnote rendered under the table.
func (t *Table) AddNote(format string, args ...any) {
	t.notes = append(t.notes, fmt.Sprintf(format, args...))
}

func fmtFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e9 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.4g", v)
}

// Render returns the formatted table.
func (t *Table) Render() string {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.headers)
	sep := make([]string, len(t.headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range t.rows {
		writeRow(r)
	}
	for _, n := range t.notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Series is an (x, y) sequence rendered as an ASCII line plot; used for
// the figure-shaped experiment outputs (e.g. FPS vs bandwidth).
type Series struct {
	Name   string
	XLabel string
	YLabel string
	Xs, Ys []float64
}

// Add appends one point.
func (s *Series) Add(x, y float64) {
	s.Xs = append(s.Xs, x)
	s.Ys = append(s.Ys, y)
}

// Render draws the series as rows of "x  y  bar" with the bar scaled to
// the maximum y value.
func (s *Series) Render(width int) string {
	if width <= 0 {
		width = 40
	}
	maxY := 0.0
	for _, y := range s.Ys {
		if y > maxY {
			maxY = y
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "-- %s --\n%s vs %s\n", s.Name, s.YLabel, s.XLabel)
	for i := range s.Xs {
		bar := ""
		if maxY > 0 {
			bar = strings.Repeat("*", int(s.Ys[i]/maxY*float64(width)))
		}
		fmt.Fprintf(&b, "%10.4g  %10.4g  %s\n", s.Xs[i], s.Ys[i], bar)
	}
	return b.String()
}

// Monotone reports whether the series' y values are non-increasing
// (dir < 0) or non-decreasing (dir > 0) within tolerance tol.
func (s *Series) Monotone(dir int, tol float64) bool {
	for i := 1; i < len(s.Ys); i++ {
		d := s.Ys[i] - s.Ys[i-1]
		if dir > 0 && d < -tol {
			return false
		}
		if dir < 0 && d > tol {
			return false
		}
	}
	return true
}

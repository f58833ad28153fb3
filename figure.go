package raidii

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// The experiment runners return their sweeps as figures: throughput series
// keyed by the swept parameter (request size, disk count), renderable as the
// text analogue of the paper's plots.

// Point is one (x, y) sample of a figure's series.
type Point struct {
	X float64 // swept parameter (request KB, number of disks, ...)
	Y float64 // measured value (MB/s, IOPS, ...)
}

// Series is one line of a figure.
type Series struct {
	Name   string
	Points []Point
}

// Add appends a point.
func (s *Series) Add(x, y float64) { s.Points = append(s.Points, Point{x, y}) }

// Max returns the largest Y value.
func (s *Series) Max() float64 {
	m := 0.0
	for _, pt := range s.Points {
		if pt.Y > m {
			m = pt.Y
		}
	}
	return m
}

// At returns the Y value at the given X (or 0).
func (s *Series) At(x float64) float64 {
	for _, pt := range s.Points {
		if pt.X == x {
			return pt.Y
		}
	}
	return 0
}

// Figure is a set of series sharing an X axis, renderable as the text
// analogue of one of the paper's plots.
type Figure struct {
	Title  string
	XLabel string
	YLabel string
	Series []*Series
}

// newFigure creates an empty figure.
func newFigure(title, xlabel, ylabel string) *Figure {
	return &Figure{Title: title, XLabel: xlabel, YLabel: ylabel}
}

// AddSeries creates and registers a named series.
func (f *Figure) AddSeries(name string) *Series {
	s := &Series{Name: name}
	f.Series = append(f.Series, s)
	return s
}

// Render prints the figure as an aligned table with one row per X value.
func (f *Figure) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", f.Title)
	fmt.Fprintf(&b, "%14s", f.XLabel)
	for _, s := range f.Series {
		fmt.Fprintf(&b, " %16s", s.Name)
	}
	fmt.Fprintf(&b, "    (%s)\n", f.YLabel)

	// Union of X values, ordered.
	seen := map[float64]bool{}
	var xs []float64
	for _, s := range f.Series {
		for _, pt := range s.Points {
			if !seen[pt.X] {
				seen[pt.X] = true
				xs = append(xs, pt.X)
			}
		}
	}
	sort.Float64s(xs)
	for _, x := range xs {
		// Minimal precision: fractional X values (e.g. 0.5 MB) must not
		// collapse to the same rounded label as their neighbours.
		fmt.Fprintf(&b, "%14s", strconv.FormatFloat(x, 'f', -1, 64))
		for _, s := range f.Series {
			fmt.Fprintf(&b, " %16.2f", s.At(x))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

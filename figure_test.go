package raidii

import (
	"strings"
	"testing"
)

func TestSeriesAccessors(t *testing.T) {
	s := &Series{Name: "x"}
	s.Add(1, 10)
	s.Add(2, 30)
	s.Add(3, 20)
	if s.Max() != 30 {
		t.Fatalf("max = %f", s.Max())
	}
	if s.At(2) != 30 {
		t.Fatalf("At(2) = %f", s.At(2))
	}
	if s.At(99) != 0 {
		t.Fatalf("At(missing) = %f", s.At(99))
	}
}

func TestFigureRender(t *testing.T) {
	f := newFigure("My Figure", "x", "MB/s")
	a := f.AddSeries("alpha")
	b := f.AddSeries("beta")
	a.Add(1, 1.5)
	a.Add(2, 2.5)
	b.Add(2, 7.25)
	out := f.Render()
	for _, want := range []string{"My Figure", "alpha", "beta", "1.50", "7.25", "MB/s"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	// X values should be ordered and unioned: rows for 1 and 2.
	if strings.Index(out, "\n             1") > strings.Index(out, "\n             2") {
		t.Fatalf("x values out of order:\n%s", out)
	}
}

func TestFigureRenderFractionalX(t *testing.T) {
	f := newFigure("Fractional", "MB", "MB/s")
	s := f.AddSeries("bw")
	s.Add(0.5, 1)
	s.Add(0.25, 2)
	s.Add(1, 3)
	out := f.Render()
	for _, want := range []string{"0.25", "0.5"} {
		if !strings.Contains(out, want) {
			t.Fatalf("fractional X %q collapsed in render:\n%s", want, out)
		}
	}
	// The two fractional rows must stay distinct and ordered before x=1.
	if strings.Index(out, "0.25") > strings.Index(out, "0.5") {
		t.Fatalf("fractional x values out of order:\n%s", out)
	}
}

func TestSeriesAtMissingX(t *testing.T) {
	s := &Series{Name: "sparse"}
	s.Add(4, 44)
	if got := s.At(5); got != 0 {
		t.Fatalf("At(missing) = %f, want 0", got)
	}
	var empty Series
	if got := empty.At(0); got != 0 {
		t.Fatalf("empty At = %f, want 0", got)
	}
	if empty.Max() != 0 {
		t.Fatalf("empty Max = %f, want 0", empty.Max())
	}
}

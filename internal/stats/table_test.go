package stats

import (
	"strings"
	"testing"
)

func sampleTable() *Table {
	tab := NewTable("demo", "name", "value")
	tab.AddRow("alpha", 1)
	tab.AddRow("beta", 2.5)
	tab.AddNote("a note with %d", 42)
	return tab
}

func TestTableRender(t *testing.T) {
	var b strings.Builder
	if err := sampleTable().Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"== demo ==", "name", "value", "alpha", "2.500", "note: a note with 42"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Render output missing %q:\n%s", want, out)
		}
	}
	// Columns are aligned: the header and first row start "value" at the
	// same offset.
	lines := strings.Split(out, "\n")
	hdr, row := lines[1], lines[3]
	if strings.Index(hdr, "value") != strings.Index(row, "1") {
		t.Fatalf("columns misaligned:\n%s", out)
	}
}

func TestTableRenderMarkdown(t *testing.T) {
	var b strings.Builder
	if err := sampleTable().RenderMarkdown(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"### demo", "| name | value |", "|---|---|", "| alpha | 1 |"} {
		if !strings.Contains(out, want) {
			t.Fatalf("markdown missing %q:\n%s", want, out)
		}
	}
}

func TestFigureTableUnionOfX(t *testing.T) {
	fig := NewFigure("f", "x", "y")
	s1 := fig.NewSeries("s1")
	s1.Add(1, 10)
	s1.Add(2, 20)
	s2 := fig.NewSeries("s2")
	s2.Add(2, 200)
	s2.Add(3, 300)
	tab := fig.Table()
	if len(tab.Rows) != 3 {
		t.Fatalf("union rows = %d, want 3", len(tab.Rows))
	}
	// x=1 row: s2 empty cell; x=3 row: s1 empty.
	if tab.Rows[0][2] != "" || tab.Rows[2][1] != "" {
		t.Fatalf("missing cells not empty: %v", tab.Rows)
	}
}

func TestFigureRenderASCII(t *testing.T) {
	fig := NewFigure("plot", "x", "y")
	s := fig.NewSeries("s")
	for i := 0; i < 10; i++ {
		s.Add(float64(i), float64(i*i))
	}
	var b strings.Builder
	if err := fig.RenderASCII(&b, 40, 8); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "plot") || !strings.Contains(out, "o = s") {
		t.Fatalf("ASCII output missing pieces:\n%s", out)
	}
	// Empty figure doesn't crash.
	var b2 strings.Builder
	if err := NewFigure("empty", "x", "y").RenderASCII(&b2, 10, 4); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b2.String(), "empty figure") {
		t.Fatal("empty figure not reported")
	}
	// Degenerate single point.
	fig3 := NewFigure("pt", "x", "y")
	fig3.NewSeries("p").Add(1, 1)
	var b3 strings.Builder
	if err := fig3.RenderASCII(&b3, 10, 4); err != nil {
		t.Fatal(err)
	}
}

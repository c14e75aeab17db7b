package analysis

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestECDFBasics(t *testing.T) {
	e := NewECDF([]float64{3, 1, 2, 4, 5})
	if e.N() != 5 {
		t.Fatalf("N = %d", e.N())
	}
	if got := e.At(3); got != 0.6 {
		t.Errorf("At(3) = %f, want 0.6", got)
	}
	if got := e.At(0); got != 0 {
		t.Errorf("At(0) = %f", got)
	}
	if got := e.At(10); got != 1 {
		t.Errorf("At(10) = %f", got)
	}
	if got := e.Median(); got != 3 {
		t.Errorf("Median = %f", got)
	}
	if e.Max() != 5 {
		t.Errorf("max = %f", e.Max())
	}
	if got := e.Mean(); got != 3 {
		t.Errorf("Mean = %f", got)
	}
}

func TestECDFMonotoneProperty(t *testing.T) {
	f := func(raw []float64) bool {
		samples := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				samples = append(samples, v)
			}
		}
		if len(samples) == 0 {
			return true
		}
		e := NewECDF(samples)
		prev := 0.0
		for _, q := range []float64{-1e9, -1, 0, 0.5, 1, 100, 1e9} {
			p := e.At(q)
			if p < prev || p < 0 || p > 1 {
				return false
			}
			prev = p
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestECDFQuantileInverse(t *testing.T) {
	// Property: for every sample v, At(v) >= q whenever Quantile(q)=v.
	samples := []float64{5, 1, 9, 3, 7, 2, 8, 4, 6, 0}
	e := NewECDF(samples)
	for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 1} {
		v := e.Quantile(q)
		if e.At(v) < q-1e-9 {
			t.Errorf("At(Quantile(%f)=%f) = %f < q", q, v, e.At(v))
		}
	}
	if e.Quantile(0) != 0 || e.Quantile(1) != 9 {
		t.Error("extreme quantiles wrong")
	}
}

func TestECDFQuantilePanicsEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewECDF(nil).Quantile(0.5)
}

func TestECDFSeries(t *testing.T) {
	e := NewECDF([]float64{1, 2, 3, 4})
	want := []float64{0, 0.5, 1}
	for i, x := range []float64{0, 2, 4} {
		if got := e.At(x); got != want[i] {
			t.Errorf("At(%v) = %f, want %f", x, got, want[i])
		}
	}
}

func TestECDFDoesNotAliasInput(t *testing.T) {
	in := []float64{3, 1, 2}
	_ = NewECDF(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Fatal("NewECDF mutated its input")
	}
}

func TestCrosstab(t *testing.T) {
	c := NewCrosstab()
	c.Add("m2m", "I:H", 71)
	c.Add("m2m", "H:H", 20)
	c.Add("smart", "I:H", 27)
	c.Add("smart", "H:H", 60)
	if got := c.Get("m2m", "I:H"); got != 71 {
		t.Errorf("Get = %f", got)
	}
	if got := c.RowTotal("m2m"); got != 91 {
		t.Errorf("RowTotal = %f", got)
	}
	if got := c.ColTotal("I:H"); got != 98 {
		t.Errorf("ColTotal = %f", got)
	}
	if got := c.Total(); got != 178 {
		t.Errorf("Total = %f", got)
	}
	if got := c.RowShare("m2m", "I:H"); math.Abs(got-71.0/91) > 1e-12 {
		t.Errorf("RowShare = %f", got)
	}
	if got := c.ColShare("m2m", "I:H"); math.Abs(got-71.0/98) > 1e-12 {
		t.Errorf("ColShare = %f", got)
	}
	if c.Get("nope", "I:H") != 0 || c.RowShare("nope", "x") != 0 {
		t.Error("missing keys should read as zero")
	}
}

func TestCrosstabAccumulates(t *testing.T) {
	c := NewCrosstab()
	c.Add("a", "x", 1)
	c.Add("a", "x", 2)
	if got := c.Get("a", "x"); got != 3 {
		t.Errorf("accumulation = %f", got)
	}
}

func TestCrosstabSortRowsByTotal(t *testing.T) {
	c := NewCrosstab()
	c.Add("small", "x", 1)
	c.Add("big", "x", 10)
	c.Add("mid", "x", 5)
	c.SortRowsByTotal()
	rows := c.Rows()
	if rows[0] != "big" || rows[1] != "mid" || rows[2] != "small" {
		t.Errorf("rows = %v", rows)
	}
	// Values must survive the reindex.
	if c.Get("big", "x") != 10 || c.Get("small", "x") != 1 {
		t.Error("reindex lost cell values")
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("class", "share")
	tb.AddRow("smart", 0.62)
	tb.AddRow("m2m", 0.26)
	s := tb.String()
	if !strings.Contains(s, "smart") || !strings.Contains(s, "0.620") {
		t.Errorf("table = %q", s)
	}
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 4 { // header, separator, two rows
		t.Errorf("table has %d lines", len(lines))
	}
}

func TestPct(t *testing.T) {
	if got := Pct(0.523); got != "52.3%" {
		t.Errorf("Pct = %q", got)
	}
}

func BenchmarkECDFAt(b *testing.B) {
	samples := make([]float64, 100000)
	for i := range samples {
		samples[i] = float64(i % 1000)
	}
	e := NewECDF(samples)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = e.At(float64(i % 1000))
	}
}

// Package analysis provides the statistical primitives the experiment
// runners share: empirical CDFs (every figure in the paper is a CDF
// or a share breakdown), two-way contingency tables with row/column
// normalization (the Fig 2/5/6 heatmaps), and plain-text table
// rendering for the harness output.
package analysis

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// ECDF is an empirical cumulative distribution function.
type ECDF struct {
	sorted []float64
}

// NewECDF builds an ECDF from samples (copied; input order preserved
// for the caller).
func NewECDF(samples []float64) *ECDF {
	s := make([]float64, len(samples))
	copy(s, samples)
	sort.Float64s(s)
	return &ECDF{sorted: s}
}

// N returns the sample count.
func (e *ECDF) N() int { return len(e.sorted) }

// At returns P(X <= x).
func (e *ECDF) At(x float64) float64 {
	if len(e.sorted) == 0 {
		return 0
	}
	// First index with value > x.
	i := sort.Search(len(e.sorted), func(i int) bool { return e.sorted[i] > x })
	return float64(i) / float64(len(e.sorted))
}

// Quantile returns the q-quantile (0 <= q <= 1) using the nearest-rank
// method. It panics on an empty ECDF.
func (e *ECDF) Quantile(q float64) float64 {
	if len(e.sorted) == 0 {
		panic("analysis: quantile of empty ECDF")
	}
	if q <= 0 {
		return e.sorted[0]
	}
	if q >= 1 {
		return e.sorted[len(e.sorted)-1]
	}
	idx := int(math.Ceil(q*float64(len(e.sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	return e.sorted[idx]
}

// Median returns the 0.5 quantile.
func (e *ECDF) Median() float64 { return e.Quantile(0.5) }

// Mean returns the sample mean (0 for empty).
func (e *ECDF) Mean() float64 {
	if len(e.sorted) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range e.sorted {
		s += v
	}
	return s / float64(len(e.sorted))
}

// Max returns the largest sample (0 for empty).
func (e *ECDF) Max() float64 {
	if len(e.sorted) == 0 {
		return 0
	}
	return e.sorted[len(e.sorted)-1]
}

// Crosstab is a two-way contingency table with string-keyed rows and
// columns, preserving insertion order for rendering.
type Crosstab struct {
	rows, cols []string
	rowIdx     map[string]int
	colIdx     map[string]int
	cells      map[[2]int]float64
}

// NewCrosstab returns an empty table.
func NewCrosstab() *Crosstab {
	return &Crosstab{rowIdx: map[string]int{}, colIdx: map[string]int{}, cells: map[[2]int]float64{}}
}

// Add accumulates v into cell (row, col), creating the row/column on
// first use.
func (c *Crosstab) Add(row, col string, v float64) {
	ri, ok := c.rowIdx[row]
	if !ok {
		ri = len(c.rows)
		c.rowIdx[row] = ri
		c.rows = append(c.rows, row)
	}
	ci, ok := c.colIdx[col]
	if !ok {
		ci = len(c.cols)
		c.colIdx[col] = ci
		c.cols = append(c.cols, col)
	}
	c.cells[[2]int{ri, ci}] += v
}

// Get returns the cell value (0 when absent).
func (c *Crosstab) Get(row, col string) float64 {
	ri, ok1 := c.rowIdx[row]
	ci, ok2 := c.colIdx[col]
	if !ok1 || !ok2 {
		return 0
	}
	return c.cells[[2]int{ri, ci}]
}

// Rows returns the row keys in insertion order.
func (c *Crosstab) Rows() []string { return append([]string(nil), c.rows...) }

// RowTotal returns the sum of the row.
func (c *Crosstab) RowTotal(row string) float64 {
	ri, ok := c.rowIdx[row]
	if !ok {
		return 0
	}
	t := 0.0
	for ci := range c.cols {
		t += c.cells[[2]int{ri, ci}]
	}
	return t
}

// ColTotal returns the sum of the column.
func (c *Crosstab) ColTotal(col string) float64 {
	ci, ok := c.colIdx[col]
	if !ok {
		return 0
	}
	t := 0.0
	for ri := range c.rows {
		t += c.cells[[2]int{ri, ci}]
	}
	return t
}

// Total returns the grand total. Cells sum in row-major index order
// — never in map-iteration order — so the float accumulation sequence
// is identical on every run even for non-integer weights.
func (c *Crosstab) Total() float64 {
	t := 0.0
	for ri := range c.rows {
		for ci := range c.cols {
			t += c.cells[[2]int{ri, ci}]
		}
	}
	return t
}

// RowShare returns cell / row total — the row-normalized heatmap
// value of Fig 2 and Fig 6-left.
func (c *Crosstab) RowShare(row, col string) float64 {
	t := c.RowTotal(row)
	if t == 0 {
		return 0
	}
	return c.Get(row, col) / t
}

// ColShare returns cell / column total — Fig 6-right's normalization.
func (c *Crosstab) ColShare(row, col string) float64 {
	t := c.ColTotal(col)
	if t == 0 {
		return 0
	}
	return c.Get(row, col) / t
}

// SortRowsByTotal reorders rows by descending total (Fig 5's
// top-countries ordering).
func (c *Crosstab) SortRowsByTotal() {
	sort.SliceStable(c.rows, func(i, j int) bool {
		return c.RowTotal(c.rows[i]) > c.RowTotal(c.rows[j])
	})
	c.reindexRows()
}

func (c *Crosstab) reindexRows() {
	old := make(map[string]int, len(c.rowIdx))
	for k, v := range c.rowIdx {
		old[k] = v
	}
	newCells := make(map[[2]int]float64, len(c.cells))
	for newRI, name := range c.rows {
		oldRI := old[name]
		for ci := range c.cols {
			if v, ok := c.cells[[2]int{oldRI, ci}]; ok {
				newCells[[2]int{newRI, ci}] = v
			}
		}
		c.rowIdx[name] = newRI
	}
	c.cells = newCells
}

// Table renders rows of labelled values as an aligned plain-text
// table — the harness's "figure".
type Table struct {
	Header []string
	Rows   [][]string
}

// NewTable returns a table with the given header.
func NewTable(header ...string) *Table { return &Table{Header: header} }

// AddRow appends one row; values are formatted with %v-ish rules
// (floats get 3 decimals).
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		case string:
			row[i] = v
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// Pct formats a fraction as a percentage string.
func Pct(f float64) string { return fmt.Sprintf("%.1f%%", 100*f) }

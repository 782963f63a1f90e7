// Package experiments regenerates every table and figure of the paper's
// evaluation (§5) on the simulated substrate: the workload statistics of
// Table 1, the baseline comparisons of Figures 1, 5, 6, and 9, the factor
// analyses of Figures 7–8 and 10–11, the ablations of Figure 12a–h, and the
// multi-query studies of Figure 13a–d. Each experiment returns a Table whose
// rows/series correspond to the paper's plot; EXPERIMENTS.md records the
// paper-vs-measured comparison.
package experiments

import (
	"fmt"
	"strings"
)

// Table is one experiment's result: named columns and formatted rows. The
// printed cell is the only record of a number: addRow keeps each numeric cell
// under its row label and column header, so Get reads back what printed.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	// Values holds every numeric cell, keyed "row/column"; addRow alone
	// writes it.
	Values map[string]float64
}

// newTable constructs an empty table.
func newTable(id, title string, columns ...string) *Table {
	return &Table{ID: id, Title: title, Columns: columns, Values: map[string]float64{}}
}

// decimals is a numeric cell printed with n decimals instead of three.
type decimals struct {
	v float64
	n int
}

// addRow appends a row: its label, then one number per remaining column — a
// float64 (printed %.3f), an int (%d) or a decimals.
func (t *Table) addRow(label string, cells ...any) {
	row := []string{label}
	for i, c := range cells {
		var d decimals
		switch c := c.(type) {
		case float64:
			d = decimals{c, 3}
		case int:
			d = decimals{float64(c), 0}
		case decimals:
			d = c
		default:
			panic(fmt.Sprintf("experiments: %s cell %T is not a number", t.ID, c))
		}
		row = append(row, fmt.Sprintf("%.*f", d.n, d.v))
		t.Values[label+"/"+t.Columns[i+1]] = d.v
	}
	t.Rows = append(t.Rows, row)
}

// Get returns the number printed in a row (by label) and column (by header),
// panicking on unknown keys so tests fail loudly on typos.
func (t *Table) Get(row, col string) float64 {
	v, ok := t.Values[row+"/"+col]
	if !ok {
		panic("experiments: no value " + row + "/" + col + " in " + t.ID)
	}
	return v
}

// Has reports whether a row and column hold a number.
func (t *Table) Has(row, col string) bool {
	_, ok := t.Values[row+"/"+col]
	return ok
}

// String renders the table as aligned text, the way the harness prints it.
func (t *Table) String() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			widths[i] = max(widths[i], len(cell))
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s — %s ==\n", t.ID, t.Title)
	for i, c := range t.Columns {
		fmt.Fprintf(&b, "%-*s  ", widths[i], c)
	}
	b.WriteByte('\n')
	for i := range t.Columns {
		b.WriteString(strings.Repeat("-", widths[i]))
		b.WriteString("  ")
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		for i, cell := range row {
			fmt.Fprintf(&b, "%-*s  ", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Package experiments regenerates every table and figure of the paper's
// evaluation (§5) on the simulated substrate: the workload statistics of
// Table 1, the baseline comparisons of Figures 1, 5 and 6, the factor
// analyses of Figures 7–8 and 10–11, the ablations of Figure 12a–h, and the
// multi-query studies of Figure 13a–d. Each experiment returns a Table whose
// rows/series correspond to the paper's plot; EXPERIMENTS.md records the
// paper-vs-measured comparison.
package experiments

import (
	"fmt"
	"math"
	"slices"
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

// addRow appends a row: its label, then one number per remaining column — a
// float64 (printed %.3f) or an int (%d).
func (t *Table) addRow(label string, cells ...any) {
	row := []string{label}
	for i, c := range cells {
		var v float64
		prec := 3
		switch c := c.(type) {
		case float64:
			v = c
		case int:
			v, prec = float64(c), 0
		default:
			panic(fmt.Sprintf("experiments: %s cell %T is not a number", t.ID, c))
		}
		row = append(row, fmt.Sprintf("%.*f", prec, v))
		t.Values[label+"/"+t.Columns[i+1]] = v
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

// Aggregate folds one experiment's tables from several seeds (tabs[i] ran
// at seeds[i]) into one table whose cells print "mean ± s.e." over the
// seeds, with the sample standard deviation over √k (0 for one seed), at
// the cell's printed precision (one decimal for a count). Its
// Values hold the means. A row label that some seeds lack is left out and
// named in a note, never averaged over the seeds that have it.
func Aggregate(seeds []uint64, tabs []*Table) (*Table, []string) {
	first := tabs[0]
	out := newTable(first.ID, fmt.Sprintf("%s (mean ± s.e., seeds %d–%d)", first.Title, seeds[0], seeds[len(seeds)-1]), first.Columns...)
	var labels []string
	byLabel := make([]map[string][]string, len(tabs))
	for i, t := range tabs {
		byLabel[i] = map[string][]string{}
		for _, row := range t.Rows {
			if !slices.Contains(labels, row[0]) {
				labels = append(labels, row[0])
			}
			byLabel[i][row[0]] = row
		}
	}
	var notes []string
	for _, label := range labels {
		var missing []string
		for i := range tabs {
			if byLabel[i][label] == nil {
				missing = append(missing, fmt.Sprint(seeds[i]))
			}
		}
		if len(missing) > 0 {
			notes = append(notes, fmt.Sprintf("%s: row %q is missing at seed %s; not averaged", first.ID, label, strings.Join(missing, ", ")))
			continue
		}
		row := []string{label}
		for c, col := range first.Columns[1:] {
			xs := make([]float64, len(tabs))
			for i, t := range tabs {
				xs[i] = t.Get(label, col)
			}
			// A count column (printed %d) averages to one decimal.
			prec := 3
			if !strings.Contains(byLabel[0][label][c+1], ".") {
				prec = 1
			}
			mean, se := meanSE(xs)
			out.Values[label+"/"+col] = mean
			row = append(row, fmt.Sprintf("%.*f ± %.*f", prec, mean, prec, se))
		}
		out.Rows = append(out.Rows, row)
	}
	return out, notes
}

// meanSE returns the mean of xs and its standard error.
func meanSE(xs []float64) (mean, se float64) {
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	if len(xs) < 2 {
		return mean, 0
	}
	var ss float64
	for _, x := range xs {
		ss += (x - mean) * (x - mean)
	}
	return mean, math.Sqrt(ss / float64(len(xs)-1) / float64(len(xs)))
}

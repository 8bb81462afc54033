// Package experiments regenerates every table and figure of the paper's
// evaluation section on top of the simulated substrate: one function per
// figure, each returning a printable Table whose rows mirror the series the
// paper plots.
package experiments

import (
	"fmt"
	"io"
	"strings"
)

// Row is one line of a result table: a label (usually an application name)
// and one value per column.
type Row struct {
	Label  string
	Values []float64
}

// Table is a printable experiment result.
type Table struct {
	// ID identifies the experiment (e.g. "fig11").
	ID string
	// Title describes the experiment.
	Title string
	// Columns names the value columns.
	Columns []string
	// Rows holds the data.
	Rows []Row
	// Notes carries free-form remarks (e.g. paper reference values).
	Notes []string
}

// AddRow appends a row.
func (t *Table) AddRow(label string, values ...float64) {
	t.Rows = append(t.Rows, Row{Label: label, Values: values})
}

// Column returns the values of the named column in row order.
func (t *Table) Column(name string) []float64 {
	idx := -1
	for i, c := range t.Columns {
		if c == name {
			idx = i
			break
		}
	}
	if idx < 0 {
		return nil
	}
	out := make([]float64, 0, len(t.Rows))
	for _, r := range t.Rows {
		if idx < len(r.Values) {
			out = append(out, r.Values[idx])
		}
	}
	return out
}

// Row returns the row with the given label, if present.
func (t *Table) Row(label string) (Row, bool) {
	for _, r := range t.Rows {
		if r.Label == label {
			return r, true
		}
	}
	return Row{}, false
}

// Render writes the table in an aligned plain-text format.
func (t *Table) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title); err != nil {
		return err
	}
	labelWidth := 14
	for _, r := range t.Rows {
		if len(r.Label) > labelWidth {
			labelWidth = len(r.Label)
		}
	}
	header := fmt.Sprintf("%-*s", labelWidth, "")
	for _, c := range t.Columns {
		header += fmt.Sprintf("  %14s", c)
	}
	if _, err := fmt.Fprintln(w, header); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, strings.Repeat("-", len(header))); err != nil {
		return err
	}
	for _, r := range t.Rows {
		line := fmt.Sprintf("%-*s", labelWidth, r.Label)
		for _, v := range r.Values {
			line += fmt.Sprintf("  %14.3f", v)
		}
		if _, err := fmt.Fprintln(w, line); err != nil {
			return err
		}
	}
	for _, n := range t.Notes {
		if _, err := fmt.Fprintf(w, "note: %s\n", n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

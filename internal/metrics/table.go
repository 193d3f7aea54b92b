package metrics

import (
	"fmt"
	"strings"
)

// Table renders experiment results as aligned plain text (the form printed
// by the benchmark harness and CLIs) and as CSV (for plotting).
type Table struct {
	title   string
	headers []string
	rows    [][]string
	notes   []string
}

// NewTable creates a table with a title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{title: title, headers: headers}
}

// AddRow appends a row. Cells are formatted with %v; use Fmt for floats.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = Fmt(v)
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

// NumRows returns the number of data rows.
func (t *Table) NumRows() int { return len(t.rows) }

// Cell returns the cell at (row, col); it panics on out-of-range indices.
func (t *Table) Cell(row, col int) string { return t.rows[row][col] }

// String renders the table as aligned plain text.
func (t *Table) String() string {
	var b strings.Builder
	if t.title != "" {
		b.WriteString(t.title)
		b.WriteByte('\n')
		b.WriteString(strings.Repeat("=", len(t.title)))
		b.WriteByte('\n')
	}
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
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			if i < len(cells)-1 && i < len(widths) {
				b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.headers)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	if total > 2 {
		b.WriteString(strings.Repeat("-", total-2))
		b.WriteByte('\n')
	}
	for _, r := range t.rows {
		writeRow(r)
	}
	for _, n := range t.notes {
		b.WriteString("note: ")
		b.WriteString(n)
		b.WriteByte('\n')
	}
	return b.String()
}

// CSV renders the table as RFC-4180-ish CSV (quoting cells that contain
// commas or quotes).
func (t *Table) CSV() string {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				b.WriteByte('"')
				b.WriteString(strings.ReplaceAll(c, `"`, `""`))
				b.WriteByte('"')
			} else {
				b.WriteString(c)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.headers)
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}

// Fmt formats a float compactly for table cells: integers print without
// decimals, small magnitudes keep three significant decimals.
func Fmt(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v == float64(int64(v)) && v < 1e12 && v > -1e12:
		return fmt.Sprintf("%d", int64(v))
	case v >= 100 || v <= -100:
		return fmt.Sprintf("%.1f", v)
	case v >= 1 || v <= -1:
		return fmt.Sprintf("%.2f", v)
	default:
		return fmt.Sprintf("%.4f", v)
	}
}

// FmtDollars renders a dollar amount with thousands separators for report
// readability (e.g. 12345.678 -> "$12,345.68").
func FmtDollars(v float64) string {
	neg := v < 0
	if neg {
		v = -v
	}
	whole := int64(v)
	frac := int64((v-float64(whole))*100 + 0.5)
	if frac >= 100 {
		whole++
		frac -= 100
	}
	s := fmt.Sprintf("%d", whole)
	var parts []string
	for len(s) > 3 {
		parts = append([]string{s[len(s)-3:]}, parts...)
		s = s[:len(s)-3]
	}
	parts = append([]string{s}, parts[0:]...)
	out := fmt.Sprintf("$%s.%02d", strings.Join(parts, ","), frac)
	if neg {
		return "-" + out
	}
	return out
}

// FmtPercent renders a ratio in [0,1] as a percentage with one decimal.
func FmtPercent(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }

// FmtMillis renders seconds as milliseconds with one decimal.
func FmtMillis(seconds float64) string { return fmt.Sprintf("%.1fms", seconds*1000) }

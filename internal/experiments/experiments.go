// Package experiments contains one driver per table and figure of the
// paper's evaluation (Figs. 2–11) and per case study (§VI-A/B/C). Each
// driver returns a Figure — labelled series of points — that the
// ehfigs command renders and the root benchmark suite regenerates.
package experiments

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// Point is one (x, y) sample of a series.
type Point struct {
	X float64
	Y float64
	// Err is an optional symmetric error bar (SEM in the
	// characterization figures); 0 means none.
	Err float64
}

// Series is one labelled curve or bar group.
type Series struct {
	Label  string
	Points []Point
}

// Figure is the reproduction of one paper figure.
type Figure struct {
	ID     string // e.g. "fig2"
	Title  string
	XLabel string
	YLabel string
	XLog   bool
	Series []Series
	// Notes carries derived scalars worth reporting alongside the plot
	// (geomean error, correlation, crossover points).
	Notes []string
}

// AddNote appends a formatted note.
func (f *Figure) AddNote(format string, args ...any) {
	f.Notes = append(f.Notes, fmt.Sprintf(format, args...))
}

// WriteCSV emits the figure as series-labelled rows:
// series,x,y,err — the bytes encoding/csv writes for those records.
// Only a label can need quoting: no float the 'g' format prints holds
// a comma, quote or line break, starts with a space or reads `\.`. So
// encoding/csv encodes each label once, the rows are appended around it
// into one buffer, and w gets one Write.
func (f *Figure) WriteCSV(w io.Writer) error {
	// 24 bytes hold any float in the 'g' format; a quoted label is at
	// most twice its length plus two quotes.
	size := len(csvHeader)
	for _, s := range f.Series {
		size += len(s.Points) * (2*len(s.Label) + 2 + 3*(1+24) + 1)
	}
	b := append(make([]byte, 0, size), csvHeader...)
	var label bytes.Buffer
	cw := csv.NewWriter(&label)
	for _, s := range f.Series {
		label.Reset()
		if err := cw.Write([]string{s.Label}); err != nil {
			return err
		}
		cw.Flush()
		enc := label.Bytes()[:label.Len()-1] // less the record's newline
		for _, p := range s.Points {
			b = append(b, enc...)
			for _, v := range [...]float64{p.X, p.Y, p.Err} {
				b = append(b, ',')
				b = strconv.AppendFloat(b, v, 'g', -1, 64)
			}
			b = append(b, '\n')
		}
	}
	_, err := w.Write(b)
	return err
}

// csvHeader is WriteCSV's first record.
const csvHeader = "series,x,y,err\n"

// find returns the series with the given label, or nil.
func (f *Figure) find(label string) *Series {
	for i := range f.Series {
		if f.Series[i].Label == label {
			return &f.Series[i]
		}
	}
	return nil
}

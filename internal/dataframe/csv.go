package dataframe

import (
	"encoding/csv"
	"fmt"
	"io"
	"regexp"
	"strconv"
	"strings"
)

// ReadCSV parses a CSV stream with a header row into a frame. Column types
// are inferred: a column is numeric when every non-empty cell parses as a
// float, categorical otherwise. Empty cells become nulls.
func ReadCSV(r io.Reader) (*Frame, error) {
	cr := csv.NewReader(r)
	cr.TrimLeadingSpace = true
	records, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("dataframe: reading csv: %w", err)
	}
	if len(records) == 0 {
		return nil, fmt.Errorf("dataframe: empty csv")
	}
	header := records[0]
	rows := records[1:]
	f := New()
	for j, name := range header {
		name = cleanCell(name)
		numeric := true
		anyValue := false
		for _, rec := range rows {
			cell := cleanCell(rec[j])
			if cell == "" {
				continue
			}
			anyValue = true
			if _, err := strconv.ParseFloat(cell, 64); err != nil {
				numeric = false
				break
			}
		}
		if numeric && anyValue {
			vals := make([]float64, len(rows))
			s := NewNumeric(name, vals)
			for i, rec := range rows {
				cell := cleanCell(rec[j])
				if cell == "" {
					s.SetNull(i)
					continue
				}
				v, _ := strconv.ParseFloat(cell, 64)
				s.Nums[i] = v
			}
			if err := f.Add(s); err != nil {
				return nil, err
			}
			continue
		}
		vals := make([]string, len(rows))
		s := NewCategorical(name, vals)
		for i, rec := range rows {
			cell := cleanCell(rec[j])
			if cell == "" {
				s.SetNull(i)
				continue
			}
			s.Strs[i] = cell
		}
		if err := f.Add(s); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// crRuns matches a run of \r ending a line inside a cell.
var crRuns = regexp.MustCompile("\r+\n")

// cleanCell trims a cell and finishes encoding/csv's \r\n → \n
// normalisation inside quoted fields: a run of \r before \n reads as one
// shorter by a single \r, so "\r\r\n" arrives as "\r\n", which would not
// survive being written and read again.
func cleanCell(s string) string {
	s = strings.TrimSpace(s)
	if !strings.Contains(s, "\r\n") {
		return s
	}
	return crRuns.ReplaceAllString(s, "\n")
}

// ReadCSVString parses CSV text into a frame.
func ReadCSVString(s string) (*Frame, error) {
	return ReadCSV(strings.NewReader(s))
}

// WriteCSV serializes the frame with a header row. Nulls are written as
// empty cells; a row that is a single null is written as "".
func (f *Frame) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(f.Names()); err != nil {
		return err
	}
	row := make([]string, f.Width())
	for i := 0; i < f.Len(); i++ {
		for j, c := range f.cols {
			row[j] = c.ValueString(i)
		}
		if len(row) == 1 && row[0] == "" {
			// A lone empty field would print as a blank line, which CSV
			// readers skip: quote it so the row survives.
			cw.Flush()
			if _, err := io.WriteString(w, "\"\"\n"); err != nil {
				return err
			}
			continue
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// CSVString serializes the frame to a CSV string (for small frames and
// serialized row-level FM prompts).
func (f *Frame) CSVString() string {
	var b strings.Builder
	_ = f.WriteCSV(&b)
	return b.String()
}

// SerializeRow renders row i as "attr1: val1, attr2: val2, …" — the entry
// serialization format used for row-level FM interactions (Figure 1).
func (f *Frame) SerializeRow(i int) string {
	var buf [512]byte // a typical row fits: one allocation, the result
	return string(f.AppendRow(buf[:0], i))
}

// AppendRow appends SerializeRow(i) to dst.
func (f *Frame) AppendRow(dst []byte, i int) []byte {
	for j, c := range f.cols {
		if j > 0 {
			dst = append(dst, ", "...)
		}
		dst = append(dst, c.Name...)
		dst = append(dst, ": "...)
		dst = c.AppendValue(dst, i)
	}
	return dst
}

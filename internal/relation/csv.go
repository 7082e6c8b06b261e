package relation

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
)

// csvBlockRows is how many rows WriteCSV reads from a lazy column at a time:
// stream.DefaultBlockSize, the granularity TupleIter walks relations in.
const csvBlockRows = 1024

// WriteCSV writes the deterministic columns as CSV with a header row.
// Stochastic attributes have no deterministic values and are omitted;
// persist their definitions in code or export realized scenarios instead.
// Lazy columns are read a block of rows at a time, without promotion.
func (r *Relation) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(r.detNames); err != nil {
		return err
	}
	record := make([]string, len(r.detNames))
	block := make([][]float64, len(r.detNames)) // rows [lo, hi) of each column
	bufs := make([][]float64, len(r.detNames))  // a lazy column's block buffer
	for lo := 0; lo < r.n; lo += csvBlockRows {
		hi := min(lo+csvBlockRows, r.n)
		for i, name := range r.detNames {
			if col := r.detCols[i]; col != nil {
				block[i] = col[lo:hi]
				continue
			}
			if bufs[i] == nil {
				bufs[i] = make([]float64, csvBlockRows)
			}
			block[i] = bufs[i][:hi-lo]
			if err := r.DetBlock(name, lo, block[i]); err != nil {
				return err
			}
		}
		for t := range hi - lo {
			for i, col := range block {
				record[i] = strconv.FormatFloat(col[t], 'g', -1, 64)
			}
			if err := cw.Write(record); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// readCSVRows streams numeric records off rd row by row: it reads the header,
// then calls emit once per data row with the parsed values (the slice is
// reused across rows). Errors name the input line the offending field starts
// on — not the record ordinal, which differs once quoted fields span lines.
// It returns the header and the number of data rows.
func readCSVRows(rd io.Reader, emit func(vals []float64) error) ([]string, int, error) {
	cr := csv.NewReader(rd)
	cr.TrimLeadingSpace = true
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return nil, 0, fmt.Errorf("relation: reading CSV header: %w", err)
	}
	header = append([]string(nil), header...) // ReuseRecord aliases the record
	vals := make([]float64, len(header))
	rows := 0
	for {
		record, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			// encoding/csv's ParseError already carries the line number
			// (including wrong-field-count rows).
			return nil, 0, fmt.Errorf("relation: reading CSV: %w", err)
		}
		for i, field := range record {
			v, err := strconv.ParseFloat(field, 64)
			if err != nil {
				line, _ := cr.FieldPos(i)
				return nil, 0, fmt.Errorf("relation: CSV line %d column %q: %w", line, header[i], err)
			}
			vals[i] = v
		}
		if err := emit(vals); err != nil {
			return nil, 0, err
		}
		rows++
	}
	return header, rows, nil
}

// ReadCSV builds a relation from CSV data with a header row of column names
// and numeric values, parsing row-by-row off the reader (never slurping the
// input). All columns are deterministic; attach stochastic attributes with
// AddStoch afterwards. Errors report input line numbers.
func ReadCSV(name string, rd io.Reader) (*Relation, error) {
	var cols [][]float64
	header, rows, err := readCSVRows(rd, func(vals []float64) error {
		if cols == nil {
			cols = make([][]float64, len(vals))
		}
		for i, v := range vals {
			cols[i] = append(cols[i], v)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	rel := New(name, rows)
	if cols == nil {
		cols = make([][]float64, len(header))
	}
	for i, colName := range header {
		if cols[i] == nil {
			cols[i] = []float64{}
		}
		if err := rel.AddDet(colName, cols[i]); err != nil {
			return nil, err
		}
	}
	return rel, nil
}

// SpillCSV streams CSV data into a column-file directory (one binary column
// file per header column plus a manifest) in constant memory, then opens the
// result as a lazy relation. It is the out-of-core load path: a 10M-tuple
// catalog spills once and every subsequent open maps the columns lazily.
// The cache argument is ignored (see BlockCache).
func SpillCSV(name string, rd io.Reader, dir string, _ *BlockCache) (*Relation, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var writers []*ColumnWriter
	closeAll := func() {
		for _, w := range writers {
			if w != nil {
				w.Close()
			}
		}
	}
	header, rows, err := readCSVRows(rd, func(vals []float64) error {
		if writers == nil {
			writers = make([]*ColumnWriter, len(vals))
			for i := range writers {
				w, err := NewColumnWriter(columnPath(dir, i))
				if err != nil {
					return err
				}
				writers[i] = w
			}
		}
		for i, v := range vals {
			if err := writers[i].Append(v); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		closeAll()
		return nil, err
	}
	if writers == nil { // header-only input still yields valid column files
		writers = make([]*ColumnWriter, len(header))
		for i := range writers {
			w, err := NewColumnWriter(columnPath(dir, i))
			if err != nil {
				closeAll()
				return nil, err
			}
			writers[i] = w
		}
	}
	for _, w := range writers {
		if err := w.Close(); err != nil {
			return nil, err
		}
	}
	m := manifest{Name: name, N: rows, Columns: header}
	raw, err := json.Marshal(m)
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(manifestPath(dir), raw, 0o644); err != nil {
		return nil, err
	}
	return OpenColumnDir(dir, nil)
}

// Out-of-core column storage: fixed-width binary column files that back
// lazy deterministic columns. A column file is the 8-byte magic "SPQCOL1\n",
// a little-endian uint64 value count, then count little-endian float64
// values. Files open mmap'd where the platform supports it — mapped pages
// are file-backed and never count toward the Go heap — with a pread-based
// fallback served through the block cache elsewhere.
package relation

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
)

const (
	colMagic      = "SPQCOL1\n"
	colHeaderSize = 16 // magic + uint64 count
)

// WriteColumnFile writes a resident column to path in column-file format.
func WriteColumnFile(path string, vals []float64) error {
	w, err := NewColumnWriter(path)
	if err != nil {
		return err
	}
	for _, v := range vals {
		if err := w.Append(v); err != nil {
			w.Close()
			return err
		}
	}
	return w.Close()
}

// ColumnWriter streams values into a column file in constant memory; the
// value count in the header is fixed up at Close.
type ColumnWriter struct {
	f     *os.File
	bw    *bufio.Writer
	count uint64
	path  string
}

// NewColumnWriter creates (truncating) a column file at path.
func NewColumnWriter(path string) (*ColumnWriter, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	w := &ColumnWriter{f: f, bw: bufio.NewWriterSize(f, 1<<16), path: path}
	var hdr [colHeaderSize]byte
	copy(hdr[:], colMagic)
	if _, err := w.bw.Write(hdr[:]); err != nil {
		f.Close()
		return nil, err
	}
	return w, nil
}

// Append writes one value.
func (w *ColumnWriter) Append(v float64) error {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
	if _, err := w.bw.Write(buf[:]); err != nil {
		return err
	}
	w.count++
	return nil
}

// Count returns the number of values appended so far.
func (w *ColumnWriter) Count() int { return int(w.count) }

// Close flushes buffered values, writes the final count into the header,
// and closes the file.
func (w *ColumnWriter) Close() error {
	if err := w.bw.Flush(); err != nil {
		w.f.Close()
		return err
	}
	var cnt [8]byte
	binary.LittleEndian.PutUint64(cnt[:], w.count)
	if _, err := w.f.WriteAt(cnt[:], int64(len(colMagic))); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}

// fileColumn is the pread fallback ColumnSource when mmap is unavailable;
// OpenColumnFile wraps it in a BlockCache so hot blocks stay resident.
type fileColumn struct {
	f *os.File
	n int
}

func (s *fileColumn) Len() int { return s.n }

func (s *fileColumn) ReadAt(dst []float64, off int) error {
	if off < 0 || off+len(dst) > s.n {
		return fmt.Errorf("relation: column read [%d,%d) out of range [0,%d)", off, off+len(dst), s.n)
	}
	buf := make([]byte, 8*len(dst))
	if _, err := s.f.ReadAt(buf, int64(colHeaderSize+8*off)); err != nil {
		return err
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:]))
	}
	return nil
}

// mmapColumn serves reads straight from a memory-mapped column file. The
// mapping is file-backed: the OS pages values in and out on demand, so a
// 10M-tuple column costs no Go heap at all.
type mmapColumn struct {
	data []byte // full file contents, including header
	n    int
}

func (s *mmapColumn) Len() int { return s.n }

func (s *mmapColumn) ReadAt(dst []float64, off int) error {
	if off < 0 || off+len(dst) > s.n {
		return fmt.Errorf("relation: column read [%d,%d) out of range [0,%d)", off, off+len(dst), s.n)
	}
	base := colHeaderSize + 8*off
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(s.data[base+8*i:]))
	}
	return nil
}

// openColumnHeader validates the magic and returns the value count, which
// must fit in the file: a count past its end is refused before any
// arithmetic on it can wrap.
func openColumnHeader(f *os.File) (int, error) {
	var hdr [colHeaderSize]byte
	if _, err := f.ReadAt(hdr[:], 0); err != nil {
		return 0, fmt.Errorf("relation: reading column header: %w", err)
	}
	if string(hdr[:len(colMagic)]) != colMagic {
		return 0, fmt.Errorf("relation: %s is not a column file", f.Name())
	}
	n := binary.LittleEndian.Uint64(hdr[len(colMagic):])
	fi, err := f.Stat()
	if err != nil {
		return 0, err
	}
	if limit := uint64(fi.Size()-colHeaderSize) / 8; n > limit {
		return 0, fmt.Errorf("relation: column file %s truncated: header claims %d values, %d bytes hold %d", f.Name(), n, fi.Size(), limit)
	}
	return int(n), nil
}

// OpenColumnFile opens a column file as a lazy ColumnSource: mmap'd where
// available, otherwise pread through cache (nil cache → the process default).
func OpenColumnFile(path string, cache *BlockCache) (ColumnSource, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	n, err := openColumnHeader(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	if data, err := mmapFile(f, colHeaderSize+8*n); err == nil {
		// The mapping outlives the descriptor; the file can be closed.
		f.Close()
		return &mmapColumn{data: data, n: n}, nil
	}
	if cache == nil {
		cache = DefaultBlockCache()
	}
	return cache.Wrap(&fileColumn{f: f, n: n}), nil
}

// manifest describes a spilled relation directory: the relation name, tuple
// count, and the column names in order (column i lives in c<i>.col).
type manifest struct {
	Name    string   `json:"name"`
	N       int      `json:"n"`
	Columns []string `json:"columns"`
}

func manifestPath(dir string) string { return filepath.Join(dir, "manifest.json") }

func columnPath(dir string, i int) string { return filepath.Join(dir, fmt.Sprintf("c%d.col", i)) }

// OpenColumnDir opens a spilled relation directory (see SpillCSV) as a lazy
// relation: every deterministic column is backed by its column file and
// loaded block-wise on demand. nil cache → the process default.
func OpenColumnDir(dir string, cache *BlockCache) (*Relation, error) {
	raw, err := os.ReadFile(manifestPath(dir))
	if err != nil {
		return nil, fmt.Errorf("relation: reading manifest: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("relation: parsing manifest: %w", err)
	}
	if m.N < 0 {
		return nil, fmt.Errorf("relation: manifest of %s claims %d tuples", dir, m.N)
	}
	rel := New(m.Name, m.N)
	for i, name := range m.Columns {
		src, err := OpenColumnFile(columnPath(dir, i), cache)
		if err != nil {
			return nil, err
		}
		if err := rel.AddDetSource(name, src); err != nil {
			return nil, err
		}
	}
	return rel, nil
}

package relation

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
)

// spillTestCSV renders a small two-column CSV and the expected column values.
func spillTestCSV(n int) (string, []float64, []float64) {
	var sb strings.Builder
	sb.WriteString("id,price\n")
	ids := make([]float64, n)
	prices := make([]float64, n)
	for i := 0; i < n; i++ {
		ids[i] = float64(i)
		prices[i] = float64((i*37)%101) / 4
		fmt.Fprintf(&sb, "%g,%g\n", ids[i], prices[i])
	}
	return sb.String(), ids, prices
}

func TestSpillCSVMatchesReadCSV(t *testing.T) {
	csvText, ids, prices := spillTestCSV(333)
	inMem, err := ReadCSV("r", strings.NewReader(csvText))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	lazy, err := SpillCSV("r", strings.NewReader(csvText), dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lazy.N() != inMem.N() || lazy.N() != 333 {
		t.Fatalf("N = %d, want 333", lazy.N())
	}
	if !lazy.IsLazy("price") {
		t.Fatal("spilled column should be lazy before promotion")
	}
	// Block reads must not promote the column.
	blk := make([]float64, 10)
	if err := lazy.DetBlock("price", 100, blk); err != nil {
		t.Fatal(err)
	}
	for i := range blk {
		if blk[i] != prices[100+i] {
			t.Fatalf("DetBlock[%d] = %v, want %v", i, blk[i], prices[100+i])
		}
	}
	if !lazy.IsLazy("price") {
		t.Fatal("DetBlock promoted the lazy column")
	}
	// Promotion reads the whole column once and memoizes it.
	col, err := lazy.Det("id")
	if err != nil {
		t.Fatal(err)
	}
	for i := range col {
		if col[i] != ids[i] {
			t.Fatalf("Det[%d] = %v, want %v", i, col[i], ids[i])
		}
	}
	if lazy.IsLazy("id") {
		t.Fatal("Det should promote the lazy column")
	}

	// Reopening from the manifest must see identical data.
	reopened, err := OpenColumnDir(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := reopened.Det("price")
	if err != nil {
		t.Fatal(err)
	}
	want, err := inMem.Det("price")
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("reopened price[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestSelectIndicesGathersLazyColumns(t *testing.T) {
	csvText, _, prices := spillTestCSV(200)
	dir := t.TempDir()
	lazy, err := SpillCSV("r", strings.NewReader(csvText), dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	idx := []int{3, 17, 42, 199}
	view := mustSelect(t, lazy, idx...)
	if view.N() != len(idx) {
		t.Fatalf("view N = %d, want %d", view.N(), len(idx))
	}
	col, err := view.Det("price")
	if err != nil {
		t.Fatal(err)
	}
	for i, orig := range idx {
		if col[i] != prices[orig] {
			t.Fatalf("view price[%d] = %v, want %v (tuple %d)", i, col[i], prices[orig], orig)
		}
	}
}

// TestPartitionOnLazyFeature: clustering on a spilled, unpromoted column must
// promote it (Means used to hand Partition the nil resident slice and the
// clustering panicked) and group exactly as on the resident twin.
func TestPartitionOnLazyFeature(t *testing.T) {
	csvText, _, _ := spillTestCSV(300)
	inMem, err := ReadCSV("r", strings.NewReader(csvText))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := SpillCSV("r", strings.NewReader(csvText), dir, nil); err != nil {
		t.Fatal(err)
	}
	lazy, err := OpenColumnDir(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !lazy.IsLazy("price") {
		t.Fatal("reopened column should be lazy")
	}
	spec := PartitionSpec{Features: []string{"price"}, GroupSize: 16, Seed: 7, Shards: 3}
	want, err := inMem.Partition(spec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := lazy.Partition(spec)
	if err != nil {
		t.Fatal(err)
	}
	got.Version = want.Version
	if !reflect.DeepEqual(got, want) {
		t.Fatal("partitioning of the spilled relation differs from the resident one")
	}
}

func TestBlockCacheEvictionAndParity(t *testing.T) {
	// A 4-values × 2-blocks cache forced over a 64-value column must evict,
	// and every read must still return the backing values exactly.
	vals := make([]float64, 64)
	for i := range vals {
		vals[i] = float64(i) * 1.5
	}
	cache := NewBlockCache(4, 2)
	src := cache.Wrap(SliceSource(vals))
	before := CacheStats()
	dst := make([]float64, 7)
	for pass := 0; pass < 3; pass++ {
		for off := 0; off+len(dst) <= len(vals); off += 5 {
			if err := src.ReadAt(dst, off); err != nil {
				t.Fatal(err)
			}
			for i := range dst {
				if dst[i] != vals[off+i] {
					t.Fatalf("pass %d off %d: [%d] = %v, want %v", pass, off, i, dst[i], vals[off+i])
				}
			}
		}
	}
	after := CacheStats()
	if after.Misses <= before.Misses {
		t.Fatal("expected cache misses")
	}
	if after.Evictions <= before.Evictions {
		t.Fatal("expected evictions from the 2-block cache")
	}
	if after.ResidentBytes <= 0 {
		t.Fatal("expected resident bytes to be tracked")
	}
}

func TestReadCSVReportsLineNumbers(t *testing.T) {
	// Row 2 of data (file line 3) carries a bad float; the error must name
	// the line so operators can find it in a million-row file.
	bad := "a,b\n1,2\n3,oops\n5,6\n"
	_, err := ReadCSV("r", strings.NewReader(bad))
	if err == nil {
		t.Fatal("malformed CSV accepted")
	}
	if !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("error does not name line 3: %v", err)
	}
	// Structurally malformed rows go through csv.ParseError, which also
	// carries the line.
	ragged := "a,b\n1,2\n3\n"
	_, err = ReadCSV("r", strings.NewReader(ragged))
	if err == nil {
		t.Fatal("ragged CSV accepted")
	}
	if !strings.Contains(err.Error(), "3") {
		t.Fatalf("ragged-row error does not locate the row: %v", err)
	}
}

func TestColumnFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/col.col"
	vals := []float64{1, -2.5, 3.25, 0, 1e18}
	if err := WriteColumnFile(path, vals); err != nil {
		t.Fatal(err)
	}
	src, err := OpenColumnFile(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if src.Len() != len(vals) {
		t.Fatalf("Len = %d, want %d", src.Len(), len(vals))
	}
	got := make([]float64, len(vals))
	if err := src.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("[%d] = %v, want %v", i, got[i], vals[i])
		}
	}
}

// TestColumnFilePreadFallback drives the storage path of platforms without
// mmap: a fileColumn read through a BlockCache. Reads that span block
// boundaries return the mmap path's values bit for bit, and reads outside
// the column fail on both the cached and the bare source.
func TestColumnFilePreadFallback(t *testing.T) {
	path := t.TempDir() + "/col.col"
	w, err := NewColumnWriter(path)
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]float64, 50)
	for i := range vals {
		vals[i] = math.Sqrt(float64(i)) - 3
		if err := w.Append(vals[i]); err != nil {
			t.Fatal(err)
		}
	}
	if w.Count() != len(vals) {
		t.Fatalf("Count = %d, want %d", w.Count(), len(vals))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	mapped, err := OpenColumnFile(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	bare := &fileColumn{f: f, n: len(vals)}
	pread := NewBlockCache(8, 3).Wrap(bare)
	if pread.Len() != len(vals) || bare.Len() != len(vals) {
		t.Fatalf("Len = %d (cached), %d (bare), want %d", pread.Len(), bare.Len(), len(vals))
	}
	want, got := make([]float64, 13), make([]float64, 13)
	for off := 0; off+len(got) <= len(vals); off += 3 {
		if err := mapped.ReadAt(want, off); err != nil {
			t.Fatal(err)
		}
		if err := pread.ReadAt(got, off); err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("off %d: [%d] = %v, mmap path reads %v", off, i, got[i], want[i])
			}
		}
	}
	for _, src := range []ColumnSource{pread, bare} {
		if err := src.ReadAt(got, len(vals)-len(got)+1); err == nil {
			t.Fatalf("%T: read past the end succeeded", src)
		}
		if err := src.ReadAt(got, -1); err == nil {
			t.Fatalf("%T: read before the start succeeded", src)
		}
	}
}

// TestCorruptColumnFilesError: a damaged column file or manifest fails to
// open with an error; it never opens with a count its bytes cannot back,
// which a later read would panic on.
func TestCorruptColumnFilesError(t *testing.T) {
	header := func(magic string, count uint64) []byte {
		b := []byte(magic)
		return binary.LittleEndian.AppendUint64(b, count)
	}
	values := func(b []byte, vals ...float64) []byte {
		for _, v := range vals {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	for _, tc := range []struct {
		name     string
		column   []byte
		manifest string // "" opens the column file alone
	}{
		{name: "bad magic", column: values(header("SPQCOLX\n", 1), 1)},
		{name: "short header", column: []byte("SPQCOL1\n\x02\x00\x00")},
		{name: "overflowing count", column: header(colMagic, 1<<61)},
		{name: "count past EOF", column: values(header(colMagic, 3), 1, 2)},
		{name: "negative n", column: values(header(colMagic, 2), 1, 2), manifest: `{"name":"r","n":-1,"columns":[]}`},
		{name: "n differs from column", column: values(header(colMagic, 2), 1, 2), manifest: `{"name":"r","n":3,"columns":["a"]}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(columnPath(dir, 0), tc.column, 0o644); err != nil {
				t.Fatal(err)
			}
			if tc.manifest == "" {
				if src, err := OpenColumnFile(columnPath(dir, 0), nil); err == nil {
					t.Fatalf("opened with %d values", src.Len())
				}
				return
			}
			if err := os.WriteFile(manifestPath(dir), []byte(tc.manifest), 0o644); err != nil {
				t.Fatal(err)
			}
			if rel, err := OpenColumnDir(dir, nil); err == nil {
				t.Fatalf("opened with %d tuples", rel.N())
			}
		})
	}
}

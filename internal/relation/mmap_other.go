//go:build !unix

package relation

import (
	"errors"
	"os"
)

// mmapFile is unavailable on this platform; OpenColumnFile falls back to
// pread.
func mmapFile(f *os.File, size int) ([]byte, error) {
	return nil, errors.New("relation: mmap unsupported on this platform")
}

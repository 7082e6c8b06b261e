package engine

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestMain fails the package's run when a test leaves a goroutine of this
// module behind: a job still solving, a solve a cancel never reached, a
// server handler still waiting. Such goroutines get up to leakGrace to
// exit after the last test, which covers a job whose cancellation was
// requested but not yet observed.
func TestMain(m *testing.M) {
	code := m.Run()
	if code == 0 {
		if stacks := lingering(leakGrace); stacks != "" {
			fmt.Fprintf(os.Stderr, "goroutines still running after the tests:\n\n%s\n", stacks)
			code = 1
		}
	}
	os.Exit(code)
}

// leakGrace bounds how long TestMain waits for this module's goroutines.
const leakGrace = 2 * time.Second

// lingering polls until no goroutine but the caller's runs code of this
// module, or until grace passes; it returns the stacks of those left.
func lingering(grace time.Duration) string {
	deadline := time.Now().Add(grace)
	for {
		stacks := moduleGoroutines()
		if stacks == "" || time.Now().After(deadline) {
			return stacks
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// moduleGoroutines renders every other goroutine with a frame of this
// module (a function line starting "spq/").
func moduleGoroutines() string {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	// The first stack is the caller's own.
	var out []string
	for _, g := range strings.Split(string(buf), "\n\n")[1:] {
		for _, line := range strings.Split(g, "\n") {
			if strings.HasPrefix(line, "spq/") {
				out = append(out, g)
				break
			}
		}
	}
	return strings.Join(out, "\n\n")
}

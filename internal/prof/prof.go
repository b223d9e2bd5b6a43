// Package prof wires the standard -cpuprofile/-memprofile flags into a
// command with one call; nora uses it, so every study can be profiled:
//
//	nora -cpuprofile cpu.out -memprofile mem.out run E1
//	go tool pprof cpu.out
package prof

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

var (
	cpuPath = flag.String("cpuprofile", "", "write a CPU profile to this file")
	memPath = flag.String("memprofile", "", "write a heap profile to this file on exit")
)

// Start begins CPU profiling if -cpuprofile was given and returns a stop
// function that finalizes both profiles; call it (typically via defer)
// before the process exits. With neither flag set it is a no-op.
//
// Callers that exit through os.Exit on error paths should invoke stop
// explicitly first, since deferred calls do not run across os.Exit.
func Start() (stop func()) {
	if *cpuPath != "" {
		f, err := os.Create(*cpuPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cpuprofile:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "cpuprofile:", err)
			os.Exit(1)
		}
		stopped := false
		return func() {
			if stopped {
				return
			}
			stopped = true
			pprof.StopCPUProfile()
			f.Close()
			writeHeap()
		}
	}
	return writeHeap
}

// writeHeap dumps an up-to-date heap profile to -memprofile if set.
func writeHeap() {
	if *memPath == "" {
		return
	}
	f, err := os.Create(*memPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "memprofile:", err)
		return
	}
	defer f.Close()
	runtime.GC() // materialize up-to-date allocation statistics
	if err := pprof.WriteHeapProfile(f); err != nil {
		fmt.Fprintln(os.Stderr, "memprofile:", err)
	}
}

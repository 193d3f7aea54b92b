// Package profiling writes the CPU and heap profiles that the
// command-line tools (elsim, elbench) take on request through their
// -cpuprofile and -memprofile flags, so a profile of a real run needs no
// separate program. Read the files with `go tool pprof`.
package profiling

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Start creates the files named by cpuPath and memPath, where an empty
// path takes no profile of that kind, and starts the CPU profile. Call
// the returned stop once the work to profile is done: it stops the CPU
// profile and writes the allocation profile. Both report a file that
// cannot be created or written with the flag that names it.
func Start(cpuPath, memPath string) (stop func() error, err error) {
	var cpu, mem *os.File
	closeAll := func() {
		for _, f := range []*os.File{cpu, mem} {
			if f != nil {
				f.Close() // the error being returned already says what failed
			}
		}
	}
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
	}
	if memPath != "" {
		if mem, err = os.Create(memPath); err != nil {
			closeAll()
			return nil, fmt.Errorf("-memprofile: %w", err)
		}
	}
	if cpu != nil {
		if err := pprof.StartCPUProfile(cpu); err != nil {
			closeAll()
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
	}
	return func() error {
		var errs []error
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				errs = append(errs, fmt.Errorf("-cpuprofile: %w", err))
			}
		}
		if mem != nil {
			runtime.GC() // the profile then counts everything freed so far
			err := pprof.Lookup("allocs").WriteTo(mem, 0)
			if cerr := mem.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				errs = append(errs, fmt.Errorf("-memprofile: %w", err))
			}
		}
		return errors.Join(errs...)
	}, nil
}

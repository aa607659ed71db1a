// Package prof wires continuous-profiling hooks into the binaries:
// pprof goroutine labels that attribute CPU samples to protocol phases,
// and one-call setup for the standard -cpuprofile / -memprofile /
// -traceout flags.
//
// The round driver labels its phases each round (sim.emit, sim.send,
// sim.scatter, sim.deliver, sim.crash) with Phase, and the workers it
// starts inherit the label; the concurrent backends label
// each long-lived goroutine once when it starts with Label
// (shard.worker, which ticks the nodes on every live backend,
// engine.monitor, livenet.write, livenet.receive). Labels are visible in `go tool pprof -tags` and in
// the flame graph's label selector, so a profile of a long run answers
// "which phase burns the cycles" without guessing from stack shapes. Setting a label costs a few allocations
// whether or not a profile is being collected, so nothing labels per
// message: core split/absorb run under their caller's label.
package prof

import (
	"context"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	rtrace "runtime/trace"
)

// PhaseLabel is the pprof label key used for protocol phases.
const PhaseLabel = "phase"

// Phase runs f under a pprof goroutine label phase=name, so CPU
// samples taken while f runs are attributed to that phase.
func Phase(name string, f func()) {
	pprof.Do(context.Background(), pprof.Labels(PhaseLabel, name), func(context.Context) {
		f()
	})
}

// PhaseErr is Phase for functions that can fail.
func PhaseErr(name string, f func() error) error {
	var err error
	pprof.Do(context.Background(), pprof.Labels(PhaseLabel, name), func(context.Context) {
		err = f()
	})
	return err
}

// Label sets the calling goroutine's phase label to name for the rest
// of its life. Goroutines it starts afterwards inherit the label.
func Label(name string) {
	pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(), pprof.Labels(PhaseLabel, name)))
}

// Start begins collecting the requested profiles. Empty file names skip
// the corresponding profile. The returned stop function flushes and
// closes everything and must be called exactly once (typically
// deferred from main); it reports the first error encountered.
func Start(cpuFile, memFile, traceFile string) (stop func() error, err error) {
	var cpu, trc *os.File
	closeAll := func() {
		if cpu != nil {
			pprof.StopCPUProfile()
			cpu.Close()
		}
		if trc != nil {
			rtrace.Stop()
			trc.Close()
		}
	}
	if cpuFile != "" {
		cpu, err = os.Create(cpuFile)
		if err != nil {
			return nil, fmt.Errorf("prof: %w", err)
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			cpu = nil
			closeAll()
			return nil, fmt.Errorf("prof: %w", err)
		}
	}
	if traceFile != "" {
		trc, err = os.Create(traceFile)
		if err != nil {
			closeAll()
			return nil, fmt.Errorf("prof: %w", err)
		}
		if err := rtrace.Start(trc); err != nil {
			trc.Close()
			trc = nil
			closeAll()
			return nil, fmt.Errorf("prof: %w", err)
		}
	}
	return func() error {
		var first error
		record := func(err error) {
			if err != nil && first == nil {
				first = fmt.Errorf("prof: %w", err)
			}
		}
		if cpu != nil {
			pprof.StopCPUProfile()
			record(cpu.Close())
		}
		if trc != nil {
			rtrace.Stop()
			record(trc.Close())
		}
		if memFile != "" {
			record(writeHeapProfile(memFile))
		}
		return first
	}, nil
}

// writeHeapProfile snapshots the heap after a GC, so the profile shows
// live objects rather than garbage awaiting collection.
func writeHeapProfile(name string) error {
	f, err := os.Create(name)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := writeHeap(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeHeap(w io.Writer) error {
	return pprof.Lookup("heap").WriteTo(w, 0)
}

package main

import (
	"fmt"
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The benchmark runs on a shared host whose speed drifts: a fixed loop can
// take three times as long under a neighbour's load as on a quiet host, and
// the drift shows in CPU time as much as in wall time. So every timing the
// benchmark reports is scaled to a reference host speed. A speed sampler
// runs a fixed calibration unit at a steady interval beside the workload
// and times it in thread CPU time; a window's timings are scaled by
// refUnitMs over the mean unit time in that window. The mean, not the
// median, because the workload bears every slow stretch in full. The reference host is
// one on which the unit takes refUnitMs. The unit is the benchmark's own
// code, so a change to the program under test does not move it.
//
// The unit copies a 1 MB buffer into another and back, four times, so it
// is bound by cache and memory bandwidth like the collector and the
// allocator that take much of the studies' time. README.md gives the units
// tried and how closely each followed the studies' batch times; this one
// followed them most closely on both workloads. Its buffers live outside
// the Go heap, so they neither count in the heap figures nor change when
// the collector runs.

// refUnitMs is the calibration unit's time on the reference host, in
// milliseconds.
const refUnitMs = 0.5

// calPeriod is how often the sampler runs a calibration unit.
const calPeriod = 40 * time.Millisecond

// calBytes is the size of each of the calibration unit's two buffers.
const calBytes = 1 << 20

// calCopies is how many times a unit copies there and back.
const calCopies = 4

// calibrator holds the calibration unit's buffers.
type calibrator struct {
	a, b []byte
}

func newCalibrator() (*calibrator, error) {
	var bufs [2][]byte
	for i := range bufs {
		buf, err := syscall.Mmap(-1, 0, calBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			return nil, fmt.Errorf("mapping calibration buffer: %w", err)
		}
		for j := range buf {
			buf[j] = byte(j * 131 >> 7)
		}
		bufs[i] = buf
	}
	return &calibrator{a: bufs[0], b: bufs[1]}, nil
}

// unit runs one calibration unit and returns its thread CPU time in
// milliseconds. The caller must be locked to its thread.
func (c *calibrator) unit() float64 {
	start := threadCPU()
	for i := 0; i < calCopies; i++ {
		copy(c.b, c.a)
		copy(c.a, c.b)
	}
	return ms(threadCPU() - start)
}

func (c *calibrator) close() {
	syscall.Munmap(c.a)
	syscall.Munmap(c.b)
}

// threadCPU returns the calling thread's CPU time.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	const clockThreadCPUTimeID = 3
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// speedSampler times a calibration unit every calPeriod until stopped.
type speedSampler struct {
	stop chan struct{}
	done chan struct{}
	mu   sync.Mutex
	ms   []float64
}

func startSpeedSampler() (*speedSampler, error) {
	cal, err := newCalibrator()
	if err != nil {
		return nil, err
	}
	s := &speedSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		defer cal.close()
		// Locked to one thread, the unit's thread CPU time is its own.
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		tick := time.NewTicker(calPeriod)
		defer tick.Stop()
		for {
			d := cal.unit()
			s.mu.Lock()
			s.ms = append(s.ms, d)
			s.mu.Unlock()
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s, nil
}

// reset starts a new window.
func (s *speedSampler) reset() {
	s.mu.Lock()
	s.ms = nil
	s.mu.Unlock()
}

// take returns the factor that scales timings of the window since the
// previous reset or take to the reference host (refUnitMs over the window's
// mean unit time), and starts a new window. A window too short to hold a
// sample waits for the next one.
func (s *speedSampler) take() float64 {
	for {
		s.mu.Lock()
		window := s.ms
		s.ms = nil
		s.mu.Unlock()
		if len(window) > 0 {
			return refUnitMs / mean(window)
		}
		time.Sleep(calPeriod / 4)
	}
}

func (s *speedSampler) Stop() {
	close(s.stop)
	<-s.done
}

package main

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// refKernel is the time the probe kernel takes on the reference machine.
// Reported times are scaled to it: a time metric reads what the measured
// interval would have taken on a machine that runs the kernel in
// refKernel.
const refKernel = 100 * time.Microsecond

// probeEvery is how often each probe thread runs the kernel: at about
// 0.1 ms per kernel, 1% of each CPU.
const probeEvery = 10 * time.Millisecond

// probe measures how fast the machine runs while a rep does: one thread
// pinned to each CPU the process may use runs a fixed kernel every
// probeEvery and records the thread CPU time it took.
//
// On a shared host a CPU can run 20-60% slower for seconds to minutes at
// a time, independently of the other CPUs and with no steal time
// reported, so a rep's CPU time grows with its wall time. The kernel
// slows with the rep; it takes the same time idle as beside a rep, so the
// rep does not move it. README.md gives the spreads with and without it.
type probe struct {
	stop  chan struct{}
	wg    sync.WaitGroup
	times [][]time.Duration // per CPU; each written by its own thread only
}

func startProbe() *probe {
	cpus := allowedCPUs()
	p := &probe{stop: make(chan struct{}), times: make([][]time.Duration, len(cpus))}
	for i, cpu := range cpus {
		p.wg.Add(1)
		//lint:allow goroutine the probe thread must run beside the rep; end stops it and waits
		go p.sample(i, cpu)
	}
	return p
}

// sample runs on its own OS thread pinned to cpu: one kernel at once, so
// every CPU has a sample however short the interval, then one per tick.
func (p *probe) sample(i, cpu int) {
	defer p.wg.Done()
	runtime.LockOSThread() // never unlocked: the thread exits with the goroutine
	pinTo(cpu)
	tick := time.NewTicker(probeEvery)
	defer tick.Stop()
	for {
		t0 := threadCPU()
		kernelSink.Add(int64(probeKernel()))
		p.times[i] = append(p.times[i], threadCPU()-t0)
		select {
		case <-p.stop:
			return
		case <-tick.C:
		}
	}
}

// end stops the probe and returns the factor that scales a time measured
// over its life to the reference machine (refKernel over the mean across
// CPUs of each CPU's median kernel time), and the CPU time the kernels
// used, which the rep's own CPU time must not include.
func (p *probe) end() (scale float64, busy time.Duration) {
	close(p.stop)
	p.wg.Wait()
	var sum time.Duration
	for _, ts := range p.times {
		for _, t := range ts {
			busy += t
		}
		slices.Sort(ts)
		sum += ts[len(ts)/2]
	}
	mean := sum / time.Duration(len(p.times))
	return float64(refKernel) / float64(mean), busy
}

// atRef scales a wall time measured over a probe's life to the reference
// machine. Only the share of it the process spent computing slows with
// the CPUs, not time spent waiting on timers such as chaos_300's injected
// latency; that share is taken as the CPU time over the wall time, at
// most 1.
func atRef(wall, cpu time.Duration, scale float64) float64 {
	busy := min(1, max(0, cpu.Seconds()/wall.Seconds()))
	return wall.Seconds() * (1 - busy + busy*scale)
}

// kernelSink keeps the compiler from dropping the kernel's work.
var kernelSink atomic.Int64

// probeKernel is a fixed mix of integer arithmetic, table updates in L1
// and sorting, about 0.1 ms on a 2 GHz Xeon. It allocates nothing, so it
// cannot change when the rep's garbage collector runs.
func probeKernel() int {
	var table [4096]int32
	var buf [256]int
	s := buf[:0]
	x, sum := 1, 0
	for i := range 2000 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		table[x&4095] += int32(i)
		s = append(s, x)
		if len(s) == len(buf) {
			slices.Sort(s)
			sum += s[len(s)/2]
			s = s[:0]
		}
	}
	return sum + int(table[x&4095])
}

// cpuMask is a Linux cpu_set_t: room for 1024 CPUs.
type cpuMask [16]uint64

// allowedCPUs lists the CPUs this process may run on. runtime.NumCPU
// counts them but does not say which they are.
func allowedCPUs() []int {
	var m cpuMask
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m))); errno != 0 {
		return []int{0} // unpinned: pinTo fails too and the thread runs anywhere
	}
	var cpus []int
	for cpu := range len(m) * 64 {
		if m[cpu/64]&(1<<(cpu%64)) != 0 {
			cpus = append(cpus, cpu)
		}
	}
	return cpus
}

// pinTo binds the calling OS thread to cpu. A failure leaves the thread
// free to run anywhere, which only blurs the per-CPU samples.
func pinTo(cpu int) {
	var m cpuMask
	m[cpu/64] |= 1 << (cpu % 64)
	_, _, _ = syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
}

// threadCPU is the calling thread's CPU time (CLOCK_THREAD_CPUTIME_ID):
// time the kernel spent preempted by the rep's own threads is not in it.
func threadCPU() time.Duration {
	const clockThreadCPUTime = 3
	var ts syscall.Timespec
	_, _, _ = syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0) // cannot fail for this clock
	return time.Duration(ts.Nano())
}

package main

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sync/atomic"
	"syscall"
	"unsafe"
)

// The open loops leave the CPUs idle between requests. On a virtual
// machine an idle virtual CPU halts, and waking it for the next request
// takes the host anywhere from microseconds to milliseconds, depending
// on what else the host runs: on a 2-vCPU VM that wake-up made up about
// a third of a cached query's latency and moved the miss latency with
// the host's load. During each open loop the benchmark therefore runs a
// child process that keeps every CPU busy at the SCHED_IDLE policy. The
// kernel runs a SCHED_IDLE thread only when nothing else wants the CPU
// and preempts it as soon as something does, so the served requests
// never wait for it, and the CPUs never halt. The closed loop keeps
// the CPUs busy by itself and runs without it.

// holdFlag starts the benchmark binary as the CPU holder.
const holdFlag = "--hold-cpus"

// schedIdle is SCHED_IDLE of sched_setscheduler(2).
const schedIdle = 5

// cpuHold is a running CPU holder.
type cpuHold struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
}

// holdCPUs starts the holder and returns once every CPU is held.
func holdCPUs() (*cpuHold, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, holdFlag)
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	h := &cpuHold{cmd: cmd, stdin: stdin}
	if _, err := io.ReadFull(stdout, make([]byte, 1)); err != nil {
		return nil, fmt.Errorf("CPU holder did not start: %w", h.release())
	}
	return h, nil
}

// release stops the holder and waits for it to exit.
func (h *cpuHold) release() error {
	h.stdin.Close()
	return h.cmd.Wait()
}

// holdCPUsChild is the holder process: one SCHED_IDLE spinning thread
// per CPU, until its standard input closes — when the benchmark
// releases it, or exits.
func holdCPUsChild(stdin io.Reader, stdout io.Writer) int {
	n := runtime.NumCPU()
	// One P more than the spinners, for the goroutine watching stdin.
	runtime.GOMAXPROCS(n + 1)
	var stop atomic.Bool
	ready := make(chan error, n)
	for k := 0; k < n; k++ {
		go func() {
			runtime.LockOSThread()
			err := setIdlePolicy()
			ready <- err
			for err == nil && !stop.Load() {
			}
		}()
	}
	for k := 0; k < n; k++ {
		if err := <-ready; err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: hold CPUs: %v\n", err)
			return 1
		}
	}
	if _, err := stdout.Write([]byte{'\n'}); err != nil {
		return 1
	}
	_, _ = io.Copy(io.Discard, stdin)
	stop.Store(true)
	return 0
}

// setIdlePolicy moves the calling thread to SCHED_IDLE.
func setIdlePolicy() error {
	var param struct{ priority int32 }
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param)))
	if e != 0 {
		return fmt.Errorf("sched_setscheduler(SCHED_IDLE): %w", e)
	}
	return nil
}

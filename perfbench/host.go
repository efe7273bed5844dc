package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"

	"streamscale/internal/bench/memo"
)

// hostInfo is the host shape and build identity recorded with every
// result, so two results are only compared when they describe one setup.
type hostInfo struct {
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Jobs       int    `json:"jobs"`
	CPUModel   string `json:"cpu_model"`
	MemTotalMB int    `json:"mem_total_mb"`
	GoVersion  string `json:"go_version"`
	OSArch     string `json:"os_arch"`
	// Commit is the VCS revision stamped into the binary when it was
	// built from a git checkout; Build is the binary's own hash, which
	// identifies the code even when no revision is available.
	Commit string `json:"commit"`
	Build  string `json:"build"`
}

func (h hostInfo) String() string {
	return strconv.Itoa(h.CPUs) + " CPUs (" + h.CPUModel + "), " + strconv.Itoa(h.MemTotalMB) + " MB, GOMAXPROCS=" +
		strconv.Itoa(h.GOMAXPROCS) + ", jobs=" + strconv.Itoa(h.Jobs) + ", " + h.GoVersion + " " + h.OSArch +
		", commit " + h.Commit + ", build " + h.Build
}

func describeHost(jobs int) hostInfo {
	h := hostInfo{
		CPUs:       runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Jobs:       jobs,
		CPUModel:   "unknown",
		GoVersion:  runtime.Version(),
		OSArch:     runtime.GOOS + "/" + runtime.GOARCH,
		Commit:     "unknown",
		Build:      memo.BuildFingerprint(),
	}
	if len(h.Build) > 16 {
		h.Build = h.Build[:16]
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	if v, ok := procField("/proc/cpuinfo", "model name"); ok {
		h.CPUModel = v
	}
	if kb, ok := procKB("/proc/meminfo", "MemTotal"); ok {
		h.MemTotalMB = int(kb / 1024)
	}
	return h
}

// resetPeakRSS returns freed memory to the kernel and restarts the
// process's resident-set high-water mark from the current resident set, so
// the next peakRSSMB reads the peak of what ran in between.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB returns the process's resident-set high-water mark in MB, or
// the Go runtime's obtained memory where /proc is unavailable.
func peakRSSMB() float64 {
	if kb, ok := procKB("/proc/self/status", "VmHWM"); ok {
		return float64(kb) * 1024 / 1e6
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / 1e6
}

// cpuSeconds returns the CPU time the process has used so far, user and
// system, over all its threads. A virtual machine's steal time, when the
// host runs another guest on the CPU, is not charged to it, so on a shared
// host it is much steadier than wall time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// stopwatch reads the wall clock and the process's CPU time together.
type stopwatch struct {
	t0  time.Time
	cpu float64
}

func startWatch() stopwatch { return stopwatch{time.Now(), cpuSeconds()} }

// read returns the wall and CPU seconds since the watch started.
func (s stopwatch) read() (wall, cpu float64) {
	return time.Since(s.t0).Seconds(), cpuSeconds() - s.cpu
}

// procField returns the value of the first "key: value" line in a /proc
// file.
func procField(path, key string) (string, bool) {
	f, err := os.Open(path)
	if err != nil {
		return "", false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v), true
		}
	}
	return "", false
}

// procKB reads a "key: <n> kB" field of a /proc file.
func procKB(path, key string) (int64, bool) {
	v, ok := procField(path, key)
	if !ok {
		return 0, false
	}
	n, err := strconv.ParseInt(strings.TrimSuffix(v, " kB"), 10, 64)
	return n, err == nil
}

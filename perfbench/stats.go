package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks; NaN for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// interquartileMean averages the values between the first and third
// quartiles: robust to short bursts of host contention, yet smooth.
func interquartileMean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	lo, hi := len(s)/4, len(s)-len(s)/4
	return mean(s[lo:hi])
}

// ratio divides, reading 0/0 as 0 (a layer that did no work).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat CPU times. Linux has
// fixed it at 100 on every architecture Go supports.
const clockTick = 100

// procCPU returns utime+stime of a live process from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may contain spaces; fields resume after its ')'.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc/%d/stat", pid)
	}
	return time.Duration(ut+st) * time.Second / clockTick, nil
}

// procStatusKB reads one "Key:  N kB" line of /proc/<pid>/status.
func procStatusKB(pid int, key string) (int64, error) {
	return procKeyed(fmt.Sprintf("/proc/%d/status", pid), key+":")
}

// procIO reads one counter of /proc/<pid>/io (syscw, wchar, ...).
func procIO(pid int, key string) (int64, error) {
	return procKeyed(fmt.Sprintf("/proc/%d/io", pid), key+":")
}

func procKeyed(path, prefix string) (int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		fields := strings.Fields(line[len(prefix):])
		if len(fields) == 0 {
			break
		}
		return strconv.ParseInt(fields[0], 10, 64)
	}
	return 0, fmt.Errorf("%s: no %q", path, prefix)
}

// selfCPU is the calling process's utime+stime.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// fsType names the filesystem holding path, from the longest matching
// mount point in /proc/self/mountinfo.
func fsType(path string) string {
	abs, err := filepath.Abs(path)
	if err != nil {
		return "unknown"
	}
	f, err := os.Open("/proc/self/mountinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	best, typ := "", "unknown"
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		// Fields: id parent major:minor root mountpoint opts... - fstype source superopts
		fields := strings.Fields(sc.Text())
		if len(fields) < 5 {
			continue
		}
		mp := fields[4]
		sep := -1
		for i, fld := range fields {
			if fld == "-" {
				sep = i
				break
			}
		}
		if sep < 0 || sep+1 >= len(fields) {
			continue
		}
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) >= len(best) {
			best, typ = mp, fields[sep+1]
		}
	}
	return typ
}

// orphanGuard makes a child process die with the benchmark, so an
// interrupted run leaves no daemon behind.
func orphanGuard() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// stealTicks sums the hypervisor steal time of all CPUs from /proc/stat,
// in clock ticks; 0 where the kernel does not report it.
func stealTicks() int64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, _ := strconv.ParseInt(f[8], 10, 64)
	return v
}

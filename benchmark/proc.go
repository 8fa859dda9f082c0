package main

import (
	"bufio"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
)

// runMeta travels with every report so a number can be traced to the code
// and machine that produced it.
type runMeta struct {
	Schema     int    `json:"schema"`
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	DataDirFS  string `json:"data_dir_fs"`
	Seed       int64  `json:"seed"`
}

// maxProcs caps the scheduler at four cores: the workloads are sized for
// a small runner, and a number taken with 64 Ps would not compare.
const maxProcs = 4

func setProcs() int {
	n := runtime.NumCPU()
	if n > maxProcs {
		n = maxProcs
	}
	runtime.GOMAXPROCS(n)
	return n
}

func collectMeta(seed int64, dataRoot string) runMeta {
	return runMeta{
		Schema:     schemaVersion,
		Commit:     gitCommit(),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		DataDirFS:  fsType(dataRoot),
		Seed:       seed,
	}
}

// gitCommit names the code under test: the revision stamped into the
// binary when it was built inside a git checkout, else what git reports
// for the working directory, else "unknown" (the driver's checkouts are
// not repositories).
func gitCommit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				return s.Value
			}
		}
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

// Filesystem magic numbers from statfs(2) for the ones a data dir is
// likely to sit on.
var fsNames = map[int64]string{
	0x01021994: "tmpfs",
	0xEF53:     "ext4",
	0x58465342: "xfs",
	0x9123683E: "btrfs",
	0x794c7630: "overlayfs",
	0x6969:     "nfs",
	0x2fc12fc1: "zfs",
}

func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	if name, ok := fsNames[int64(st.Type)]; ok {
		return name
	}
	return "0x" + strconv.FormatInt(int64(st.Type), 16)
}

// rssPeakMiB reads VmHWM, the process's peak resident set.
func rssPeakMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) >= 1 {
				kb, _ := strconv.ParseFloat(fields[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// procSnap is the process-wide counters read at the edges of a measured
// window.
type procSnap struct {
	mallocs    uint64
	allocBytes uint64
	gcPauseNs  uint64
	cpuNs      int64
}

func snapProc() procSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	cpu := ru.Utime.Nano() + ru.Stime.Nano()
	return procSnap{mallocs: ms.Mallocs, allocBytes: ms.TotalAlloc, gcPauseNs: ms.PauseTotalNs, cpuNs: cpu}
}

func (a procSnap) sub(b procSnap) procSnap {
	return procSnap{
		mallocs:    a.mallocs - b.mallocs,
		allocBytes: a.allocBytes - b.allocBytes,
		gcPauseNs:  a.gcPauseNs - b.gcPauseNs,
		cpuNs:      a.cpuNs - b.cpuNs,
	}
}

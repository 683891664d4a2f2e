package main

import (
	"bufio"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// fingerprint says where a result was measured, so a later comparison
// can tell a host change from a code change.
type fingerprint struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	GitSHA     string `json:"git_sha"`
	GitDirty   bool   `json:"git_dirty"`
}

func hostFingerprint() fingerprint {
	fp := fingerprint{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		GitSHA:     "unknown",
	}
	// The acceptance driver runs from an exported tree that is not a git
	// repository; "unknown" is the honest answer there.
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		fp.GitSHA = strings.TrimSpace(string(out))
		if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil {
			fp.GitDirty = len(strings.TrimSpace(string(st))) > 0
		}
	}
	return fp
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

// calibrator times a fixed kernel nobody in this repository will ever
// optimise — a seeded stable sort of int64 keys — so that a swing in
// every metric at once can be attributed to the host (ROADMAP item 1).
// The children read it between repetitions and report their end-to-end
// timings on the clock it defines (README "The calibrated clock").
type calibrator struct {
	keys, work []int64
}

func newCalibrator(rows int) *calibrator {
	rng := rand.New(rand.NewSource(42))
	k := &calibrator{keys: make([]int64, rows), work: make([]int64, rows)}
	for i := range k.keys {
		k.keys[i] = rng.Int63n(1 << 20)
	}
	return k
}

// readMs sorts a fresh copy of the keys and returns the wall in
// milliseconds. It collects first, so that the reading does not share
// the host with the background collection of the garbage the workload
// has just left.
func (k *calibrator) readMs() float64 {
	runtime.GC()
	copy(k.work, k.keys)
	start := time.Now()
	sort.SliceStable(k.work, func(i, j int) bool { return k.work[i] < k.work[j] })
	return float64(time.Since(start).Nanoseconds()) / 1e6
}

// peakRSSMB reads this process's resident-set high-water mark.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

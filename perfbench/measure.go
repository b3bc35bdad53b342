package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count), 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the nearest-rank q-quantile of xs, 0 for none.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

// mean returns the mean of xs, 0 for none.
func mean(xs []float64) float64 { return ratio(sum(xs), float64(len(xs))) }

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// sha returns the hex sha256 of data.
func sha(data []byte) string {
	h := sha256.Sum256(data)
	return hex.EncodeToString(h[:])
}

// jsonSHA returns the hex sha256 of v's JSON encoding.
func jsonSHA(v any) (string, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	return sha(data), nil
}

// rssMB returns the process's resident set in MiB: from
// /proc/self/statm where it exists, otherwise the Go runtime's total
// obtained memory.
func rssMB() float64 {
	if data, err := os.ReadFile("/proc/self/statm"); err == nil {
		if fields := strings.Fields(string(data)); len(fields) >= 2 {
			if pages, err := strconv.ParseFloat(fields[1], 64); err == nil {
				return pages * float64(os.Getpagesize()) / (1 << 20)
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// rssEvery is how often an rssSampler reads the resident set.
const rssEvery = 10 * time.Millisecond

// rssSampler keeps the highest resident set seen while it runs.
type rssSampler struct {
	stop chan struct{}
	done chan struct{}
	peak float64
}

func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{}), peak: rssMB()}
	go func() {
		defer close(s.done)
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				s.peak = max(s.peak, rssMB())
			}
		}
	}()
	return s
}

// finish stops the sampler and returns the peak, in MiB.
func (s *rssSampler) finish() float64 {
	close(s.stop)
	<-s.done
	return max(s.peak, rssMB())
}

// clock is a reading of wall time and of the process's CPU time (all
// threads, user and system).
type clock struct {
	wall time.Time
	cpu  time.Duration
}

func now() clock {
	var ru syscall.Rusage
	cpu := time.Duration(0)
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	return clock{wall: time.Now(), cpu: cpu}
}

// since returns the wall and CPU time elapsed since c.
func (c clock) since() (wall, cpu time.Duration) {
	n := now()
	return n.wall.Sub(c.wall), n.cpu - c.cpu
}

// machine identifies where and what a run measured.
type machine struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Commit     string `json:"commit"`
	SourceSHA  string `json:"source_sha256"`
}

// describeMachine records the host and the code a run measured: the
// VCS revision the binary was built from when the build knows it,
// and a digest of the checkout's Go sources and module files either
// way (a checkout without VCS metadata still names its code).
func describeMachine(root string) machine {
	m := machine{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Commit:     "none",
		SourceSHA:  sourceDigest(root),
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				m.Commit = s.Value
			}
		}
	}
	return m
}

// sourceDigest hashes every .go, go.mod and go.sum file under root in
// path order, skipping the scratch directory and VCS metadata.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == ".bench_build" || name == ".git" {
				return filepath.SkipDir
			}
			return nil
		}
		name := d.Name()
		if !strings.HasSuffix(name, ".go") && name != "go.mod" && name != "go.sum" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		h.Write([]byte(rel))
		h.Write([]byte{0})
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}

package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// printMeta writes the machine and build metadata line that precedes every
// result, so a recorded number can be tied to the hardware and the code it
// was measured on.
func printMeta(w io.Writer, opts options) {
	rev, modified := vcsRevision()
	meta := map[string]interface{}{
		"workload":       opts.workload,
		"seed":           opts.seed,
		"seconds":        opts.seconds,
		"trace":          opts.trace,
		"cpu_model":      cpuModel(),
		"nproc":          runtime.NumCPU(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"go_version":     runtime.Version(),
		"git_commit":     rev,
		"git_modified":   modified,
		"lanes":          Lanes,
		"workers":        Workers,
		"search_workers": Workers,
	}
	line, _ := json.Marshal(meta)
	fmt.Fprintf(w, "# meta %s\n", line)
}

// cpuModel returns the first "model name" of /proc/cpuinfo ("unknown"
// where the file does not exist).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// vcsRevision reports the git commit the binary was built from, as the Go
// toolchain stamps it when the build runs inside a git work tree
// ("unknown" otherwise, e.g. in an exported source tree).
func vcsRevision() (rev string, modified bool) {
	rev = "unknown"
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return rev, false
	}
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			modified = s.Value == "true"
		}
	}
	return rev, modified
}

// usage is a getrusage snapshot of the whole process.
type usage struct {
	cpu   time.Duration // user + system
	maxRS int64         // peak resident set, bytes
}

func readUsage() usage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return usage{}
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	// Linux reports ru_maxrss in KiB.
	return usage{cpu: tv(ru.Utime) + tv(ru.Stime), maxRS: int64(ru.Maxrss) * 1024}
}

// morePasses decides whether the timed phase starts another pass after
// done passes: at least three for a median (four when traced passes
// alternate with untraced ones), then as long as the next pass, at the
// mean pass length so far, ends no later than half a pass past the
// deadline.
func morePasses(done int, tr *tracer, start time.Time, seconds float64) bool {
	min := 3
	if tr != nil {
		min = 4
	}
	if done < min {
		return true
	}
	elapsed := time.Since(start).Seconds()
	return elapsed+0.5*elapsed/float64(done) < seconds
}

// printPass writes the one-line record of a timed pass.
func printPass(w io.Writer, i int, traced bool, points int64, wall, cpu time.Duration) {
	tag := ""
	if traced {
		tag = " (traced)"
	}
	fmt.Fprintf(w, "# pass %d%s: %d points in %.3f s (%.6g points/s), %.3f CPU-s\n",
		i, tag, points, wall.Seconds(), float64(points)/wall.Seconds(), cpu.Seconds())
}

// freeHeap collects the garbage of earlier passes and returns it to the
// operating system, so every timed pass starts from the same heap and the
// peak resident set reflects one pass, not how many ran before it.
func freeHeap() { debug.FreeOSMemory() }

// median returns the median of xs (0 for an empty slice).
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

// Command perfbench runs one workload of the repository benchmark in-process,
// driving agsim only through its public package functions, and prints one
// JSON result line. It is built and driven by run.py, which repeats set-up,
// folds CPU profiles, checks the golden digests and prints the benchmark's
// result; DESIGN.md records what each workload and metric is for.
//
// Protocol: the process prints "READY" on its own line when set-up is done and
// the first timed op is about to start (run.py times process start to that
// line as setup_s), then, unless -setup-only is given, runs the timed section
// and prints the result as its last line.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"syscall"
	"time"
)

// benchWorkload is one benchmark workload: setup runs before the first timed
// op and run is the timed section.
type benchWorkload interface {
	setup(b *bench)
	run(b *bench)
	// digest hashes the simulated outputs the golden check compares.
	digest() string
}

var workloads = map[string]func() benchWorkload{
	"report":  func() benchWorkload { return &report{} },
	"serve":   func() benchWorkload { return newServe(256, false) },
	"observe": func() benchWorkload { return newServe(8, true) },
}

// bench carries a run's parameters, its op accounting and its metrics.
type bench struct {
	seed    uint64
	seconds int
	tr      *tracer

	attempted, failed int
	// checks counts failed checks; errors keeps the first maxErrors.
	checks int
	errors []string
	// unitWall and unitCPU time each unit of the timed section, in seconds.
	unitWall, unitCPU []float64
	// metrics are end-to-end values, plus per-layer values when traced.
	metrics map[string]float64
}

// result is the last stdout line.
type result struct {
	Digest    string             `json:"digest"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Errors    []string           `json:"errors"`
	Metrics   map[string]float64 `json:"metrics"`
	// UnitWall and UnitCPU are per-unit seconds, kept as diagnostics.
	UnitWall []float64 `json:"unit_wall_s"`
	UnitCPU  []float64 `json:"unit_cpu_s"`
}

// maxErrors caps the failure messages carried in the result.
const maxErrors = 8

// fail records a failed check without ending the op.
func (b *bench) fail(format string, args ...any) {
	b.checks++
	if len(b.errors) < maxErrors {
		b.errors = append(b.errors, fmt.Sprintf(format, args...))
	}
}

// op runs one op (an experiment, an epoch or a query), counting it as failed
// when it panics or records a failed check. It reports whether the op
// succeeded, so a caller whose simulation state a failed op may have broken
// can stop the run.
func (b *bench) op(fn func()) (ok bool) {
	b.attempted++
	before, depth := b.checks, len(b.tr.open)
	defer func() {
		if r := recover(); r != nil {
			b.fail("panic: %v", r)
			b.tr.unwind(depth)
			ok = false
		}
		if !ok || b.checks > before {
			b.failed++
		}
	}()
	fn()
	return b.checks == before
}

// unit runs one unit of the timed section: a report pass, ten serving epochs
// or one observe read cycle. wall_s and cpu_s are the unit count times the
// median unit, so a host stall inside one unit does not move them. It
// returns the unit's wall time in seconds.
func (b *bench) unit(fn func()) float64 {
	w0, c0 := time.Now(), cpuTime()
	fn()
	wall := time.Since(w0).Seconds()
	b.unitWall = append(b.unitWall, wall)
	b.unitCPU = append(b.unitCPU, (cpuTime() - c0).Seconds())
	return wall
}

// rusage reads the process's resource usage.
func rusage() syscall.Rusage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return ru
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func memStats() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

const mib = 1 << 20

func main() {
	name := flag.String("workload", "", "report, serve or observe")
	seed := flag.Uint64("seed", 20151205, "workload seed")
	seconds := flag.Int("seconds", 25, "run length; sets the amount of simulated work")
	setupOnly := flag.Bool("setup-only", false, "exit after set-up")
	traceOut := flag.String("trace-out", "", "record spans and per-layer metrics, writing the spans to this file")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the timed section to this file")
	flag.Parse()

	mk, ok := workloads[*name]
	if !ok || *seconds < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q or bad -seconds %d\n", *name, *seconds)
		os.Exit(2)
	}
	b := &bench{seed: *seed, seconds: *seconds, tr: newTracer(*traceOut != ""), metrics: map[string]float64{}}
	w := mk()
	w.setup(b)
	fmt.Println("READY")
	if *setupOnly {
		return
	}

	var prof *os.File
	if *cpuProfile != "" {
		var err error
		if prof, err = os.Create(*cpuProfile); err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(prof); err != nil {
			fatal(err)
		}
	}
	m0 := memStats()
	w.run(b)
	m1 := memStats()
	if prof != nil {
		pprof.StopCPUProfile()
		if err := prof.Close(); err != nil {
			fatal(err)
		}
	}

	units := float64(len(b.unitWall))
	b.metrics["wall_s"] = units * quantile(b.unitWall, 0.5)
	b.metrics["cpu_s"] = units * quantile(b.unitCPU, 0.5)
	b.metrics["alloc_mib"] = float64(m1.TotalAlloc-m0.TotalAlloc) / mib
	b.metrics["max_rss_mib"] = float64(rusage().Maxrss) / 1024 // Maxrss is in KiB
	b.metrics["runtime.gc_count"] = float64(m1.NumGC - m0.NumGC)
	if b.tr.on {
		b.tr.layerMetrics(b.metrics)
		if err := b.tr.write(*traceOut); err != nil {
			fatal(err)
		}
	}
	out, err := json.Marshal(result{
		Digest:    w.digest(),
		Attempted: b.attempted,
		Failed:    b.failed,
		Errors:    b.errors,
		Metrics:   b.metrics,
		UnitWall:  b.unitWall,
		UnitCPU:   b.unitCPU,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = slices.Sorted(slices.Values(xs))
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

// Command perfbench is the repository's benchmark. It drives the COMA
// simulator and the comad daemon from outside, through their public Go
// functions, on one workload per invocation:
//
//	perfbench -workload std-barnes|ecp-mp3d|serve-mixed -seed N -seconds S -trace 0|1
//
// With -trace 0 it measures the end-to-end metrics; with -trace 1 it
// makes an untraced and a traced pass (CPU profile, spans, layer
// probes) and reports the per-layer metrics. Either way it checks every
// result it gets and prints, as its last line, one JSON object:
// {"correct", "attempted", "failed", "metrics"}. README.md defines the
// workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"

	"coma/internal/config"
)

// defaultSeed is the seed whose simulated statistics golden.json pins.
const defaultSeed = 1

// options are one invocation's settings.
type options struct {
	seed    uint64
	seconds float64
	trace   bool
	out     string // directory for the traced run's spans and profile
}

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
}

// report is what a workload measured and checked.
type report struct {
	tally
	metrics []metric
	notes   []string // sample counts and other context, printed only
}

func (r *report) add(name string, value float64, unit string) {
	r.metrics = append(r.metrics, metric{name, value, unit})
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// benchWorkload is one workload of the benchmark.
type benchWorkload struct {
	name string
	// goldenIDs lists the run identities whose statistics golden.json
	// pins for a workload seed.
	goldenIDs func(seed uint64) []config.RunIdentity
	run       func(o options) (*report, error)
}

var workloads = []benchWorkload{stdBarnes, ecpMp3d, serveMixed}

func main() {
	name := flag.String("workload", "", "workload to run: std-barnes, ecp-mp3d or serve-mixed")
	seed := flag.Uint64("seed", defaultSeed, "workload seed; every run and job seed derives from it")
	seconds := flag.Float64("seconds", 30, "length of the measured window in seconds")
	trace := flag.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	out := flag.String("out", ".", "directory the traced run writes its spans and CPU profile to")
	goldenOut := flag.String("write-golden", "", "simulate the default-seed runs of every workload, write their statistics to this file and exit")
	flag.Parse()

	if *goldenOut != "" {
		if err := writeGolden(*goldenOut, defaultSeed); err != nil {
			logf("%v", err)
			os.Exit(1)
		}
		return
	}
	var w *benchWorkload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	o := options{seed: *seed, seconds: *seconds, trace: *trace == 1, out: *out}
	rep, err := w.run(o)
	if err != nil {
		logf("%s: %v", w.name, err)
		os.Exit(1)
	}
	if rep.attempted == 0 {
		logf("%s: no operation completed", w.name)
		os.Exit(1)
	}
	for _, m := range rep.metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			logf("%s: metric %s is %v", w.name, m.name, m.value)
			os.Exit(1)
		}
	}
	printReport(os.Stdout, w.name, o, rep)
}

// printReport writes one line per metric, the notes, and the closing
// JSON result line.
func printReport(out io.Writer, name string, o options, rep *report) {
	fmt.Fprintf(out, "workload %s seed %d trace %v (%s, %d CPUs, %s)\n",
		name, o.seed, o.trace, runtime.Version(), runtime.NumCPU(), runtime.GOARCH)
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(rep.metrics))
	for _, m := range rep.metrics {
		fmt.Fprintf(out, "  %-28s %14.6g %s\n", m.name, m.value, m.unit)
		metrics[m.name] = value{m.value, m.unit}
	}
	for _, n := range rep.notes {
		fmt.Fprintf(out, "  # %s\n", n)
	}
	fmt.Fprintf(out, "  %-28s %14.6g ratio (%d of %d failed)\n", "fail_frac", rep.failFrac(), rep.failed, rep.attempted)
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.failed == 0, rep.attempted, rep.failed, metrics})
	if err != nil {
		panic(err) // plain structs of numbers and strings always encode
	}
	fmt.Fprintln(out, string(line))
}

// outPath names a traced run's output file of the given kind.
func outPath(o options, workload, kind string) string {
	return filepath.Join(o.out, fmt.Sprintf("%s-seed%d.%s", workload, o.seed, kind))
}

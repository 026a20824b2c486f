// Command perfbench is the repository's benchmark of the ROCoCoTM runtime.
// One run measures one workload for a given number of seconds with two
// closed-loop clients, checks the final state against a ledger kept apart
// from the runtime, and prints its metrics as the last line of standard
// output:
//
//	perfbench --workload contended|wide|durable --seed N --seconds S --trace 0|1
//	perfbench --steady K --seconds S
//
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer
// metrics of a separate traced run. --steady runs every workload K times
// as child processes, in alternating order, and prints each metric's
// median, quartiles and max/min ratio. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// namedMetric is one reported metric.
type namedMetric struct {
	name  string
	value float64
	unit  string
}

// result is the last line of a run's output.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted uint64                `json:"attempted"`
	Failed    uint64                `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: contended, wide or durable")
	seed := fs.Uint64("seed", 1, "input seed (the first of K in --steady)")
	seconds := fs.Float64("seconds", 10, "measured seconds per run")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics of a traced run")
	steadyK := fs.Int("steady", 0, "run every workload K times and print each metric's spread")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fs.Usage()
		return 2
	}
	fmt.Fprintln(stdout, fingerprint())
	if *steadyK > 0 {
		if err := steady(*steadyK, *seed, *seconds, stdout); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	w := lookup(*name)
	if w == nil {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	res, err := measure(w, *seed, *seconds, *trace == 1, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		res.Correct = false
	}
	line, jerr := json.Marshal(res)
	if jerr != nil {
		fmt.Fprintln(stderr, "perfbench:", jerr)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if err != nil {
		return 1
	}
	return 0
}

// fingerprint names the host a run's numbers belong to. Numbers from
// different fingerprints are not compared.
func fingerprint() string {
	return fmt.Sprintf("host: cpu=%q num_cpu=%d gomaxprocs=%d go=%s",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
}

// measure runs whole epochs of w until seconds of measured time have
// passed, and reports each metric over the epochs.
func measure(w *spec, seed uint64, seconds float64, traced bool, out io.Writer) (result, error) {
	res := result{Metrics: map[string]jsonMetric{}}
	b := newBench(w, seed, traced)
	var eps []epochResult
	var v verdict
	var measured time.Duration
	for e := 0; measured.Seconds() < seconds; e++ {
		r, err := b.runEpoch(e)
		if err != nil {
			return res, fmt.Errorf("epoch %d: %w", e, err)
		}
		eps = append(eps, r)
		measured += r.measured
		res.Attempted += r.ops
		v.lostUnits += r.verdict.lostUnits
		v.tornAudits += r.verdict.tornAudits
	}
	res.Correct = true
	// Noise from outside the process (CPU steal, a collection landing in
	// one epoch and not the next) hits whole epochs, so each metric is the
	// interquartile mean over the epochs: the mean of their middle half.
	of := func(f func(epochResult) float64) float64 {
		xs := make([]float64, len(eps))
		for i, r := range eps {
			xs[i] = f(r)
		}
		return iqm(xs)
	}
	fmt.Fprintf(out, "workload: %s seed=%d epochs=%d ops_per_epoch=%d clients=%d update_samples_per_epoch=%.0f audit_samples_per_epoch=%.0f\n",
		w.name, seed, len(eps), w.rounds*roundOps, clients,
		of(func(r epochResult) float64 { return float64(r.updN) }),
		of(func(r epochResult) float64 { return float64(r.audN) }))
	// The lost-update fault is counted here and not in "failed": how many
	// units a run loses varies from run to run, while "failed" must be the
	// same share of "attempted" in every run.
	fmt.Fprintf(out, "oracle: lost_units=%d torn_audits=%d\n", v.lostUnits, v.tornAudits)

	var ms []namedMetric
	if traced {
		l := &b.lay
		fmt.Fprintln(out, l.traceLine())
		ms = l.metrics()
	} else {
		setups := make([]float64, len(eps))
		for i, r := range eps {
			setups[i] = r.setup.Seconds()
		}
		ms = []namedMetric{
			{"throughput_ktps", of(func(r epochResult) float64 { return float64(r.ops) / r.measured.Seconds() / 1e3 }), "ktxn/s"},
			{"update_p50_us", of(func(r epochResult) float64 { return r.updP50 }), "us"},
			{"update_p95_us", of(func(r epochResult) float64 { return r.updP95 }), "us"},
			{"audit_p50_us", of(func(r epochResult) float64 { return r.audP50 }), "us"},
			{"audit_p95_us", of(func(r epochResult) float64 { return r.audP95 }), "us"},
			{"cpu_us_per_txn", of(func(r epochResult) float64 { return r.cpu.Seconds() * 1e6 / float64(r.ops) }), "us"},
			{"setup_s", median(setups), "s"},
			{"rss_mb", peakRSS(), "MiB"},
		}
	}
	for _, m := range ms {
		res.Metrics[m.name] = jsonMetric{Value: m.value, Unit: m.unit}
	}
	return res, nil
}

// iqm returns the interquartile mean of xs: the mean of the values left
// after dropping the lowest and the highest quarter. xs is reordered.
func iqm(xs []float64) float64 {
	slices.Sort(xs)
	q := len(xs) / 4
	mid := xs[q : len(xs)-q]
	var sum float64
	for _, x := range mid {
		sum += x
	}
	return sum / float64(len(mid))
}

// median returns the median of xs (0 for none); xs is reordered.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

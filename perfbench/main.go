// Command perfbench is the ShareStreams benchmark: four workloads over the
// endsystem, each timed from outside through the public calls of the
// packages it drives, with every output checked. See README.md.
//
//	perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones, and the spans are written under --out.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"time"
)

// processStart anchors setup_s: package initialisation runs before main.
var processStart = time.Now()

var workloadNames = []string{"pipeline", "blocks", "service-sparse", "service-overload"}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one workload run: its seed and deadline, its operation counts,
// the check failures it met, and the metrics it reports.
type bench struct {
	seed     uint64
	seconds  float64
	deadline time.Time

	attempted int64
	failed    int64
	errs      []error
	metrics   map[string]metric
}

func newBench(seed uint64, seconds float64) *bench {
	return &bench{seed: seed, seconds: seconds, metrics: map[string]metric{}}
}

// startTiming opens the measured interval of the given length.
func (b *bench) startTiming(seconds float64) {
	b.deadline = time.Now().Add(time.Duration(seconds * float64(time.Second)))
}

func (b *bench) timeLeft() bool { return time.Now().Before(b.deadline) }

// check records a failed output check.
func (b *bench) check(err error) {
	if err != nil {
		b.errs = append(b.errs, err)
	}
}

// put records a metric; a value that is not a finite number is a failed
// check (a metric with no samples), never a printed NaN.
func (b *bench) put(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		b.check(fmt.Errorf("metric %s has no valid samples", name))
		v = 0
	}
	b.metrics[name] = metric{Value: v, Unit: unit}
}

func (b *bench) result() result {
	return result{Correct: len(b.errs) == 0, Attempted: b.attempted, Failed: b.failed, Metrics: b.metrics}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: pipeline, blocks, service-sparse, service-overload or all")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer pass instead of the end-to-end one")
	out := fs.String("out", ".bench_out", "directory for span traces")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloadNames
	} else if !known(*workload) {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *workload)
		return 2
	}

	share := *seconds / float64(len(names))
	var results []result
	for i, name := range names {
		start := processStart
		if i > 0 {
			start = time.Now()
		}
		b := newBench(*seed, share)
		if *trace == 1 {
			traceRun(b, name, *out)
		} else {
			endToEndRun(b, name, start)
		}
		for _, err := range b.errs {
			fmt.Fprintf(stderr, "perfbench: %s: check failed: %v\n", name, err)
		}
		r := b.result()
		if len(names) > 1 {
			line, _ := json.Marshal(struct {
				Workload string `json:"workload"`
				result
			}{name, r})
			fmt.Fprintln(stdout, string(line))
		}
		results = append(results, r)
	}

	final := results[0]
	if len(results) > 1 {
		final = result{Correct: true, Metrics: map[string]metric{}}
		for i, r := range results {
			final.Correct = final.Correct && r.Correct
			final.Attempted += r.Attempted
			final.Failed += r.Failed
			for k, m := range r.Metrics {
				final.Metrics[names[i]+"/"+k] = m
			}
		}
	}
	line, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !final.Correct {
		return 1
	}
	return 0
}

func known(name string) bool {
	for _, n := range workloadNames {
		if n == name {
			return true
		}
	}
	return false
}

// endToEndRun measures one workload untraced. setup_s runs from start to
// the first timed piece; max_rss_mb is the process's peak.
func endToEndRun(b *bench, name string, start time.Time) {
	switch name {
	case "pipeline":
		pipelineEndToEnd(b, start)
	case "blocks":
		blocksEndToEnd(b, start)
	default:
		serviceEndToEnd(b, serviceShapes[name], start)
	}
	b.put("max_rss_mb", "MB", maxRSSMB())
}

// traceRun is the per-layer pass. The per-layer metrics belong to three
// families — the pipeline replica, the block kernel and the service
// reconstruction — and every traced run measures all three, each on its
// own workload (the service family on the named service workload, or on
// service-sparse), so every run prints every per-layer metric. The named
// workload's family also reports tracing.overhead_share: its end-to-end
// piece timed with the layer tracing on against the same piece with it
// off, interleaved in one process.
func traceRun(b *bench, name, out string) {
	tr := newTracer(1 << 17)
	svc := serviceShapes["service-sparse"]
	if s, ok := serviceShapes[name]; ok {
		svc = s
	}
	third := b.seconds / 3
	overhead := map[string]float64{}
	overhead["pipeline"] = pipelineLayers(b, tr, third)
	overhead["blocks"] = blocksLayers(b, tr, third)
	overhead[svc.name] = serviceLayers(b, tr, svc, third)
	b.put("tracing.overhead_share", "share", overhead[name])
	if err := tr.write(out, "trace-"+name+".jsonl"); err != nil {
		b.check(fmt.Errorf("writing spans: %w", err))
	}
}

package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (NaN for an empty slice). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// cpuTime is the process's user+system CPU time: every thread, GC workers
// included, so spinning and yielding goroutines are charged.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB is the process's peak resident set size in MiB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// memStats are the allocator counters the per-layer metrics difference.
type memStats struct {
	objects, bytes, gcs uint64
}

var memSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

func readMem() memStats {
	metrics.Read(memSamples)
	return memStats{
		objects: memSamples[0].Value.Uint64(),
		bytes:   memSamples[1].Value.Uint64(),
		gcs:     memSamples[2].Value.Uint64(),
	}
}

func (a memStats) since(b memStats) memStats {
	return memStats{objects: a.objects - b.objects, bytes: a.bytes - b.bytes, gcs: a.gcs - b.gcs}
}

// pieces collects the end-to-end samples of one workload: each timed piece
// (a pipeline call, a cycle chunk, a fence) contributes its host duration
// and the frames it delivered. CPU time is sampled over windows of cpuEvery
// consecutive pieces, because the kernel brings other threads' CPU clocks
// up to date only at scheduler ticks; a workload's rounds hold a whole
// number of windows, so no window spans the work between rounds.
type pieces struct {
	wallNs []float64
	frames []float64

	cpuEvery    int
	open        bool
	inWindow    int
	cpuStart    time.Duration
	winFrames   float64
	cpuPerFrame []float64
}

func newPieces(cpuEvery int) *pieces { return &pieces{cpuEvery: cpuEvery} }

// next is called before each piece starts, outside its timed interval; it
// opens a CPU window when none is open.
func (p *pieces) next() {
	if !p.open {
		p.open, p.inWindow, p.winFrames = true, 0, 0
		p.cpuStart = cpuTime()
	}
}

// add records one piece, closing the CPU window after its cpuEvery-th.
func (p *pieces) add(d time.Duration, frames int) {
	p.wallNs = append(p.wallNs, float64(d.Nanoseconds()))
	p.frames = append(p.frames, float64(frames))
	p.winFrames += float64(frames)
	if p.inWindow++; p.inWindow == p.cpuEvery {
		p.open = false
		if p.winFrames > 0 {
			p.cpuPerFrame = append(p.cpuPerFrame, float64((cpuTime()-p.cpuStart).Nanoseconds())/p.winFrames)
		}
	}
}

// p90Window is how many consecutive pieces share one 90th percentile.
const p90Window = 128

// endToEnd fills the piece-derived end-to-end metrics: rates and CPU are
// medians over pieces (CPU windows) and piece time is the median. The
// 90th percentile is taken within each window of p90Window pieces and the
// median over windows reported: the host's neighbours slow it in bursts,
// and a burst then moves a few windows instead of the whole tail.
func (p *pieces) endToEnd(b *bench) {
	var p90s []float64
	for i := 0; i+p90Window <= len(p.wallNs); i += p90Window {
		p90s = append(p90s, quantile(p.wallNs[i:i+p90Window], 0.9))
	}
	if len(p90s) == 0 { // a run too short for one window
		p90s = append(p90s, quantile(p.wallNs, 0.9))
	}
	rates := make([]float64, len(p.wallNs))
	for i := range p.wallNs {
		rates[i] = p.frames[i] / p.wallNs[i] * 1e9
	}
	b.put("frames_per_s", "1/s", median(rates))
	b.put("cpu_ns_per_frame", "ns", median(p.cpuPerFrame))
	b.put("fence_us_p50", "us", quantile(p.wallNs, 0.5)/1e3)
	b.put("fence_us_p90", "us", median(p90s)/1e3)
	b.put("delivered_per_fence", "frames", median(p.frames))
}

// span is one traced layer call: name, start and end in ns since the
// tracer started, and the index of the span that caused it (-1 for none).
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in a preallocated buffer and writes them out at the
// end of the run; spans past the buffer are counted, not kept. A nil
// tracer records nothing, which is how untraced pieces run the same code.
type tracer struct {
	t0      time.Time
	spans   []span
	dropped int
}

func newTracer(capacity int) *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, capacity)}
}

// begin opens a span at start and returns its ID (-1 when not recorded).
func (t *tracer) begin(name string, parent int32, start time.Time) int32 {
	if t == nil {
		return -1
	}
	if len(t.spans) == cap(t.spans) {
		t.dropped++
		return -1
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: int64(start.Sub(t.t0))})
	return id
}

// finish closes span id at end.
func (t *tracer) finish(id int32, end time.Time) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = int64(end.Sub(t.t0))
}

// add records a closed span.
func (t *tracer) add(name string, parent int32, start, end time.Time) {
	t.finish(t.begin(name, parent, start), end)
}

// write stores the spans as JSON lines in dir/name.
func (t *tracer) write(dir, name string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if t.dropped > 0 {
		fmt.Fprintf(w, "{\"dropped_spans\":%d}\n", t.dropped)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"repro/internal/attr"
	"repro/internal/core"
	"repro/internal/ctlplane"
	"repro/internal/decision"
	"repro/internal/endsystem"
	"repro/internal/qm"
	"repro/internal/shard"
)

// The service workloads drive endsystem.NewService with the defaults
// ssserved ships: 4 × 16 slots, DWCS, DropOldest, buffer pool 8/64/64, 128
// cycles per fence. The benchmark's single goroutine is the engine
// goroutine; the journal goes to a pre-sized in-memory sink.
const (
	svcShards = 4
	svcSlots  = 16
	svcCycles = 128
	// svcPrefix is the fences of set-up whose journal every replay
	// re-executes: recovery is timed on a journal of fixed length, since a
	// whole-run journal grows with the run and could not be compared
	// between runs. It equals the default checkpoint cadence, so the
	// prefix ends on a checkpoint record.
	svcPrefix      = 256
	svcRoundFences = 256 // fences per round; each round ends with one replay
	svcCPUWindow   = 128 // fences; two per round
	svcRetunes     = 2   // per churn fence, after one evict and one admit
	svcWarmFences  = 768
)

type serviceShape struct {
	name   string
	frames int  // offered per stream per fence
	churn  bool // evict/re-admit and retune at every fence
	sparse bool // every offered frame is delivered in its fence
	// streams admitted; churn keeps the count. It is the same for every
	// seed, since the frames per fence, and so every rate, scale with it.
	streams int
}

var serviceShapes = map[string]serviceShape{
	"service-sparse":   {name: "service-sparse", frames: 1, churn: true, sparse: true, streams: 56},
	"service-overload": {name: "service-overload", frames: 12, streams: svcShards * svcSlots},
}

// splitmix64: the benchmark's seeded input generator.
type rng struct{ s uint64 }

func newRand(seed uint64) *rng { return &rng{s: seed} }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// serviceLoad generates the admin requests: the initial admissions and,
// per fence, a churn that evicts one stream, admits a fresh one into the
// same home shard (so no shard overflows) and retunes others within their
// class — valid by construction, so every request must succeed.
type serviceLoad struct {
	r      *rng
	home   func(shard.StreamID) int
	ids    []shard.StreamID
	class  map[shard.StreamID]attr.Class
	nextID shard.StreamID
}

var svcClasses = [...]attr.Class{attr.EDF, attr.StaticPriority, attr.FairTag}

func (l *serviceLoad) spec(c attr.Class) attr.Spec {
	switch c {
	case attr.StaticPriority:
		return attr.Spec{Class: c, Priority: uint16(l.r.intn(1024))}
	case attr.FairTag:
		return attr.Spec{Class: c, Weight: uint16(1 + l.r.intn(8))}
	default:
		return attr.Spec{Class: attr.EDF, Period: uint16(1 + l.r.intn(15))}
	}
}

// idFor returns the next unused stream ID whose home shard is k.
func (l *serviceLoad) idFor(k int) shard.StreamID {
	for {
		id := l.nextID
		l.nextID++
		if l.home(id) == k {
			return id
		}
	}
}

func (l *serviceLoad) admit(id shard.StreamID) ctlplane.Request {
	c := svcClasses[l.r.intn(len(svcClasses))]
	l.ids = append(l.ids, id)
	l.class[id] = c
	return ctlplane.Request{Op: ctlplane.OpAdmit, Stream: id, Spec: l.spec(c)}
}

func newServiceLoad(seed uint64, shape serviceShape, home func(shard.StreamID) int) (*serviceLoad, []ctlplane.Request) {
	l := &serviceLoad{r: newRand(seed ^ 0x5e41), home: home, class: map[shard.StreamID]attr.Class{}, nextID: 1}
	n := shape.streams
	var perShard [svcShards]int
	var reqs []ctlplane.Request
	for len(reqs) < n {
		id := l.nextID
		l.nextID++
		if k := home(id); perShard[k] < svcSlots {
			perShard[k]++
			reqs = append(reqs, l.admit(id))
		}
	}
	return l, reqs
}

func (l *serviceLoad) churn() []ctlplane.Request {
	i := l.r.intn(len(l.ids))
	victim := l.ids[i]
	l.ids[i] = l.ids[len(l.ids)-1]
	l.ids = l.ids[:len(l.ids)-1]
	delete(l.class, victim)
	reqs := []ctlplane.Request{
		{Op: ctlplane.OpEvict, Stream: victim},
		l.admit(l.idFor(l.home(victim))),
	}
	for k := 0; k < svcRetunes; k++ {
		id := l.ids[l.r.intn(len(l.ids))]
		reqs = append(reqs, ctlplane.Request{Op: ctlplane.OpRetune, Stream: id, Spec: l.spec(l.class[id])})
	}
	return reqs
}

// memSink is the journal's pre-sized in-memory sink. It keeps the set-up
// prefix for replay; afterwards it copies each line into a fixed scratch
// buffer that wraps, so memory stays bounded while every write still
// costs its copy.
type memSink struct {
	prefix  []byte
	keep    bool
	scratch []byte
	bytes   uint64
	lines   uint64
}

func newMemSink() *memSink {
	return &memSink{prefix: make([]byte, 0, 1<<20), keep: true, scratch: make([]byte, 0, 1<<20)}
}

func (s *memSink) Write(p []byte) (int, error) {
	s.bytes += uint64(len(p))
	s.lines += uint64(bytes.Count(p, []byte{'\n'}))
	if s.keep {
		s.prefix = append(s.prefix, p...)
		return len(p), nil
	}
	if len(s.scratch)+len(p) > cap(s.scratch) {
		s.scratch = s.scratch[:0]
	}
	s.scratch = append(s.scratch, p...)
	return len(p), nil
}

// service is one engine with its load generator and sink.
type service struct {
	shape  serviceShape
	eng    *ctlplane.Engine
	sink   *memSink
	load   *serviceLoad
	prefix liveState // the engine's state at the end of the replayed prefix
}

// newService builds the engine and steps the prefix: the admission fence
// then churn (or plain) fences. Every fence is checked.
func newService(b *bench, shape serviceShape) (*service, error) {
	sink := newMemSink()
	eng, err := endsystem.NewService(endsystem.ServiceConfig{FramesPerStream: shape.frames, Journal: sink})
	if err != nil {
		return nil, err
	}
	load, reqs := newServiceLoad(b.seed, shape, eng.Router().ShardOf)
	s := &service{shape: shape, eng: eng, sink: sink, load: load}
	for i := 0; i < svcPrefix; i++ {
		if i > 0 {
			reqs = s.requests()
		}
		_, _, err := s.step(reqs)
		b.check(err)
	}
	sink.keep = false
	s.prefix = stateOf(eng)
	return s, nil
}

func (s *service) requests() []ctlplane.Request {
	if !s.shape.churn {
		return nil
	}
	return s.load.churn()
}

// step runs one fence with the given requests and checks it. It returns
// the Step's host time and the fence's deliveries.
func (s *service) step(reqs []ctlplane.Request) (time.Duration, uint64, error) {
	prev := s.eng.Ledger()
	for _, r := range reqs {
		s.eng.Enqueue(r)
	}
	t := time.Now()
	rep := s.eng.Step()
	d := time.Since(t)
	return d, rep.Ledger.Delivered - prev.Delivered, checkFence(rep, prev, s.shape.sparse, svcShards*svcCycles)
}

// replay re-executes the prefix journal and checks the replayed engine.
func (s *service) replay() (time.Duration, error) {
	t := time.Now()
	eng, _, err := ctlplane.Replay(bytes.NewReader(s.sink.prefix))
	d := time.Since(t)
	if err != nil {
		return d, err
	}
	return d, checkReplay(s.prefix, stateOf(eng))
}

func serviceEndToEnd(b *bench, shape serviceShape, start time.Time) {
	s, err := newService(b, shape)
	if err != nil {
		b.check(err)
		return
	}
	for i := 0; i < svcWarmFences; i++ {
		_, _, err := s.step(s.requests())
		b.check(err)
	}
	_, err = s.replay()
	b.check(err)
	b.put("setup_s", "s", time.Since(start).Seconds())

	b.startTiming(b.seconds)
	p := newPieces(svcCPUWindow)
	var recovery []float64
	for b.timeLeft() {
		for i := 0; i < svcRoundFences; i++ {
			reqs := s.requests()
			p.next()
			d, delivered, err := s.step(reqs)
			b.attempted++
			b.check(err)
			p.add(d, int(delivered))
		}
		d, err := s.replay()
		b.attempted++
		b.check(err)
		recovery = append(recovery, d.Seconds())
		runtime.GC() // the replayed engine's garbage is not the fences' cost
	}
	p.endToEnd(b)
	b.put("recovery_s", "s", median(recovery))
}

// recon is the traced reconstruction of an engine: a shard.Router in live
// mode with the same configuration, fed the same requests and offered the
// same frames through Manager.Offer, stepped with StepShard.
type recon struct {
	r      *shard.Router
	frames int
	epoch  uint64
}

func newRecon(frames int) (*recon, error) {
	r, err := shard.New(shard.Config{
		Shards:        svcShards,
		SlotsPerShard: svcSlots,
		BufferPool:    qm.SharedConfig{Reservation: 8, Burst: 64, DelayTarget: 64},
		Program:       decision.ProgramDWCS,
	})
	if err != nil {
		return nil, err
	}
	if err := r.StartLive(qm.DropOldest); err != nil {
		return nil, err
	}
	return &recon{r: r, frames: frames}, nil
}

// reconFence is one reconstructed fence's outcome.
type reconFence struct {
	delivered    uint64
	offers       int
	offer        time.Duration
	steps        [svcShards]time.Duration
	idle, cycles int
}

func (c *recon) fence(reqs []ctlplane.Request, tr *tracer, parent int32) (reconFence, error) {
	var out reconFence
	c.epoch++
	for _, req := range reqs {
		var err error
		switch req.Op {
		case ctlplane.OpAdmit:
			_, _, err = c.r.AdmitLive(req.Stream, req.Spec)
		case ctlplane.OpEvict:
			_, err = c.r.EvictLive(req.Stream)
		case ctlplane.OpRetune:
			err = c.r.RetuneLive(req.Stream, req.Spec)
		default:
			err = fmt.Errorf("reconstruction: unexpected %v request", req.Op)
		}
		if err != nil {
			return out, err
		}
	}
	t := time.Now()
	for k := 0; k < svcShards; k++ {
		m := c.r.Manager(k)
		for slot := 0; slot < svcSlots; slot++ {
			if _, ok := c.r.SlotStream(k, slot); !ok {
				continue
			}
			for f := 0; f < c.frames; f++ {
				m.Offer(slot, qm.Frame{Size: 1500, Arrival: c.epoch})
				out.offers++
			}
		}
	}
	e := time.Now()
	out.offer = e.Sub(t)
	tr.add("qm.offer", parent, t, e)
	visit := func(cr *core.CycleResult) bool {
		out.delivered += uint64(len(cr.Transmissions))
		out.cycles++
		if cr.Idle {
			out.idle++
		}
		return true
	}
	for k := 0; k < svcShards; k++ {
		t = time.Now()
		if _, err := c.r.StepShard(k, svcCycles, visit); err != nil {
			return out, err
		}
		e = time.Now()
		out.steps[k] = e.Sub(t)
		tr.add("shard.step", parent, t, e)
	}
	return out, nil
}

// serviceLayers is the service family of the traced pass. Two engines
// built from the same seed get the same requests: the bare one steps
// alone, the traced one steps inside a span with the reconstruction
// beside it. It returns the tracing overhead share of the fence.
func serviceLayers(b *bench, tr *tracer, shape serviceShape, seconds float64) float64 {
	bare, err := newService(b, shape)
	if err != nil {
		b.check(err)
		return 0
	}
	traced, err := newService(b, shape)
	if err != nil {
		b.check(err)
		return 0
	}
	rc, err := newRecon(shape.frames)
	if err != nil {
		b.check(err)
		return 0
	}
	// Bring the reconstruction to the engines' post-prefix state by
	// replaying the same request stream from a twin generator.
	twin, reqs := newServiceLoad(b.seed, shape, traced.eng.Router().ShardOf)
	for i := 0; i < svcPrefix; i++ {
		if i > 0 {
			reqs = nil
			if shape.churn {
				reqs = twin.churn()
			}
		}
		if _, err := rc.fence(reqs, nil, -1); err != nil {
			b.check(err)
			return 0
		}
	}

	var bareNs, tracedNs, control, offerNs, stepUs, replayUs []float64
	var fences, idle, cycles, requests int
	var shed, allocBytes uint64
	j0 := traced.sink
	bytes0, lines0 := j0.bytes, j0.lines
	gc0 := readMem().gcs
	shed0 := traced.eng.Ledger().DroppedQM
	b.startTiming(seconds)
	for b.timeLeft() {
		for i := 0; i < svcRoundFences/4; i++ {
			reqs := bare.requests()
			mem0 := readMem()
			d, _, err := bare.step(reqs)
			mem := readMem().since(mem0)
			b.check(err)
			bareNs = append(bareNs, float64(d.Nanoseconds()))
			allocBytes += mem.bytes

			prev := traced.eng.Ledger()
			for _, r := range reqs {
				traced.eng.Enqueue(r)
			}
			t := time.Now()
			id := tr.begin("ctlplane.step", -1, t)
			rep := traced.eng.Step()
			e := time.Now()
			tr.finish(id, e)
			b.check(checkFence(rep, prev, shape.sparse, svcShards*svcCycles))
			fid := tr.begin("reconstruction.fence", -1, e)
			rf, err := rc.fence(reqs, tr, fid)
			tr.finish(fid, time.Now())
			b.attempted += 2
			if err != nil {
				b.check(err)
				continue
			}
			b.check(checkReconstruction(rep.Epoch, rep.Ledger.Delivered-prev.Delivered, rf.delivered))
			stepNs := float64(e.Sub(t).Nanoseconds())
			tracedNs = append(tracedNs, stepNs)
			var steps time.Duration
			for _, sd := range rf.steps {
				steps += sd
				stepUs = append(stepUs, float64(sd.Nanoseconds())/1e3)
			}
			control = append(control, (stepNs-float64((rf.offer+steps).Nanoseconds()))/1e3)
			if rf.offers > 0 {
				offerNs = append(offerNs, float64(rf.offer.Nanoseconds())/float64(rf.offers))
			}
			idle += rf.idle
			cycles += rf.cycles
			requests += len(reqs)
			fences++
		}
		d, err := traced.replay()
		tr.add("ctlplane.replay", -1, time.Now().Add(-d), time.Now())
		b.attempted++
		b.check(err)
		replayUs = append(replayUs, float64(d.Nanoseconds())/1e3/svcPrefix)
	}
	shed = traced.eng.Ledger().DroppedQM - shed0
	perFence := func(n uint64) float64 { return float64(n) / float64(fences) }
	b.put("shard.step_us", "us", median(stepUs))
	b.put("core.idle_share", "share", float64(idle)/float64(cycles))
	b.put("qm.offer_ns", "ns", median(offerNs))
	b.put("qm.shed_per_fence", "frames", perFence(shed))
	b.put("ctlplane.control_us", "us", median(control))
	b.put("ctlplane.requests_per_fence", "count", perFence(uint64(requests)))
	b.put("journal.bytes_per_fence", "B", perFence(j0.bytes-bytes0))
	b.put("journal.lines_per_fence", "count", perFence(j0.lines-lines0))
	b.put("replay.us_per_fence", "us", median(replayUs))
	b.put("replay.ratio", "ratio", median(replayUs)/(median(bareNs)/1e3))
	b.put("alloc_bytes_per_fence", "B", perFence(allocBytes))
	b.put("gc.cycles", "count", float64(readMem().gcs-gc0))
	return median(tracedNs)/median(bareNs) - 1
}

package main

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"time"

	"repro/internal/attr"
	"repro/internal/core"
	"repro/internal/decision"
	"repro/internal/regblock"
	"repro/internal/streamlet"
	"repro/internal/traffic"
)

// The blocks workload is the perf gate's headline row — N = 1024 DWCS
// slots under block (BA) routing, all backlogged — with one slot in eight
// fed by two weighted streamlet sets through a streamlet.Aggregator (the
// §4.2 / Figure 10 shape), each transmission charged back with OnTransmit.
//
// Every source releases one frame per blockGap ticks of arrival time and
// blockGap is at least every period, so each slot's deadline tracks its
// arrivals and all deadlines advance together: the block's deadlines stay
// inside the 16-bit serial window for the whole run. (With unequal gaps
// they drift apart by the period difference every cycle and leave the
// window after about 4k cycles, after which serial order means nothing.)
// Aggregated slots take period blockGap, so the aggregate's deadline runs
// on the slot's own clock however its streamlets share it.
const (
	blockSlots       = 1024
	blockGap         = 16
	blockAggEvery    = 8  // one slot in eight is aggregated
	blockChunk       = 8  // cycles per timed piece, ~1.5 ms
	blockTimedChunks = 32 // per round, one CPU window; then one full-order chunk and one recovery
	blockWarmRounds  = 10
	blockFrameBytes  = 1000
)

// blockInputs is the seeded make-up of the 1024 slots.
type blockInputs struct {
	period, phase []uint64
	// aggregated slots: two sets each, weights and streamlet counts
	weights    map[int][2]int
	streamlets map[int][2]int
}

func newBlockInputs(seed uint64) blockInputs {
	r := newRand(seed ^ 0xb10c)
	in := blockInputs{
		period:     make([]uint64, blockSlots),
		phase:      make([]uint64, blockSlots),
		weights:    map[int][2]int{},
		streamlets: map[int][2]int{},
	}
	for i := range in.period {
		in.period[i] = 1 + uint64(r.intn(blockGap))
		in.phase[i] = uint64(r.intn(1024))
	}
	// One aggregated slot in each aligned group of eight, at a seeded
	// position, so the count is the same for every seed.
	for g := 0; g < blockSlots; g += blockAggEvery {
		slot := g + r.intn(blockAggEvery)
		in.weights[slot] = [2]int{1 + r.intn(4), 1 + r.intn(4)}
		in.streamlets[slot] = [2]int{2 + r.intn(15), 2 + r.intn(15)}
	}
	return in
}

// blockRig is one scheduler built from the inputs; aggregated selects
// whether the aggregated slots get their streamlet sets or a single
// source of the same spec (the same-N comparison run).
type blockRig struct {
	sched *core.Scheduler
	aggs  []*streamlet.Aggregator // by slot; nil for single-source slots
	seen  []uint64
	stamp uint64
	err   error // first failed per-cycle check
	full  bool  // run checkBlockOrder on every cycle
	spans *tracer
	chunk int32
	last  time.Time
	frame int
}

func newBlockRig(in blockInputs, aggregated bool) (*blockRig, error) {
	sched, err := core.New(core.Config{Slots: blockSlots, Mode: decision.DWCS, Routing: core.BlockRouting})
	if err != nil {
		return nil, err
	}
	rig := &blockRig{sched: sched, chunk: -1, aggs: make([]*streamlet.Aggregator, blockSlots), seen: make([]uint64, blockSlots)}
	periodic := func(i int) *traffic.Periodic {
		return &traffic.Periodic{Gap: blockGap, Phase: in.phase[i], Backlogged: true}
	}
	for i := 0; i < blockSlots; i++ {
		var src regblock.HeadSource = periodic(i)
		spec := attr.Spec{Class: attr.EDF, Period: uint16(in.period[i])}
		if w, ok := in.weights[i]; ok {
			spec.Period = blockGap
			if aggregated {
				var sets []*streamlet.Set
				for s, count := range in.streamlets[i] {
					srcs := make([]regblock.HeadSource, count)
					for k := range srcs {
						srcs[k] = periodic(i)
					}
					set, err := streamlet.NewSet(w[s], srcs)
					if err != nil {
						return nil, err
					}
					sets = append(sets, set)
				}
				agg, err := streamlet.New(sets...)
				if err != nil {
					return nil, err
				}
				rig.aggs[i] = agg
				src = agg
			}
		}
		if err := sched.Admit(i, spec, src); err != nil {
			return nil, err
		}
	}
	return rig, sched.Start()
}

// visit is the per-cycle visitor: check the block, charge aggregated
// transmissions, and (traced) record the cycle's span.
func (rig *blockRig) visit(cr *core.CycleResult) bool {
	rig.stamp++
	if rig.err == nil {
		rig.err = checkBlockShape(cr.Transmissions, blockSlots, rig.seen, rig.stamp)
		if rig.err == nil && rig.full {
			rig.err = checkBlockOrder(cr.Transmissions)
		}
	}
	for i := range cr.Transmissions {
		if a := rig.aggs[cr.Transmissions[i].Slot]; a != nil {
			if _, _, err := a.OnTransmit(blockFrameBytes); err != nil && rig.err == nil {
				rig.err = err
			}
		}
	}
	rig.frame += len(cr.Transmissions)
	if rig.spans != nil {
		now := time.Now()
		rig.spans.add("core.cycle", rig.chunk, rig.last, now)
		rig.last = now
	}
	return true
}

// run executes one chunk and returns its host time and frames.
func (rig *blockRig) run(full bool) (time.Duration, int) {
	rig.full = full
	rig.frame = 0
	t := time.Now()
	rig.last = t
	rig.sched.RunCycles(blockChunk, rig.visit)
	return time.Since(t), rig.frame
}

// checkAggregates checks every aggregated slot's service split and that
// OnTransmit charged every transmitted frame to a streamlet.
func (rig *blockRig) checkAggregates(in blockInputs) error {
	for slot, a := range rig.aggs {
		if a == nil {
			continue
		}
		served := make([]uint64, a.Sets())
		var bytes, dequeued uint64
		for s := range served {
			set := a.Set(s)
			counts := make([]uint64, set.Size())
			for k := range counts {
				counts[k] = set.Streamlet(k).Served
				served[s] += counts[k]
				bytes += set.Streamlet(k).Bytes
			}
			if err := checkRoundRobin(counts); err != nil {
				return fmt.Errorf("slot %d set %d: %w", slot, s, err)
			}
		}
		dequeued = a.Served
		w := in.weights[slot]
		if err := checkWRR(served, w[:]); err != nil {
			return fmt.Errorf("slot %d: %w", slot, err)
		}
		if transmitted := bytes / blockFrameBytes; transmitted+uint64(a.Pending()) != dequeued {
			return fmt.Errorf("slot %d: %d frames charged + %d pending, %d dequeued", slot, transmitted, a.Pending(), dequeued)
		}
	}
	return nil
}

// digest hashes the slot order of one chunk's blocks: a rebuilt rig
// re-executing the chunk must reproduce it.
func (rig *blockRig) digest() (uint64, error) {
	h := fnv.New64a()
	var buf [2]byte
	rig.sched.RunCycles(blockChunk, func(cr *core.CycleResult) bool {
		rig.visit(cr)
		for _, tx := range cr.Transmissions {
			buf[0], buf[1] = byte(tx.Slot), byte(tx.Slot>>8)
			h.Write(buf[:])
		}
		return true
	})
	return h.Sum64(), rig.err
}

// blockRecovery rebuilds the workload from its seed and re-executes the
// first chunk; the batch kernel keeps no journal, so recovery is
// deterministic re-execution, checked against the live run's digest.
func blockRecovery(in blockInputs, want uint64) error {
	rig, err := newBlockRig(in, true)
	if err != nil {
		return err
	}
	got, err := rig.digest()
	if err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("blocks: re-executed first chunk digest %x, live %x", got, want)
	}
	return nil
}

func blocksEndToEnd(b *bench, start time.Time) {
	in := newBlockInputs(b.seed)
	rig, err := newBlockRig(in, true)
	if err != nil {
		b.check(err)
		return
	}
	first, err := rig.digest()
	b.check(err)
	for i := 0; i < blockWarmRounds*(blockTimedChunks+1); i++ {
		rig.run(i%(blockTimedChunks+1) == blockTimedChunks)
	}
	b.check(rig.err)
	b.check(blockRecovery(in, first))
	b.put("setup_s", "s", time.Since(start).Seconds())

	b.startTiming(b.seconds)
	p := newPieces(blockTimedChunks)
	var recovery []float64
	for b.timeLeft() && rig.err == nil {
		for i := 0; i < blockTimedChunks; i++ {
			p.next()
			d, frames := rig.run(false)
			b.attempted++
			p.add(d, frames)
		}
		rig.run(true)
		b.attempted++
		b.check(rig.checkAggregates(in))
		t := time.Now()
		err := blockRecovery(in, first)
		recovery = append(recovery, time.Since(t).Seconds())
		b.attempted++
		b.check(err)
		runtime.GC() // the rebuilt rig's garbage is not the chunks' cost
	}
	b.check(rig.err)
	p.endToEnd(b)
	b.put("recovery_s", "s", median(recovery))
}

// blocksLayers is the blocks family of the traced pass: chunks of the
// aggregated rig, alternately bare and traced (a span per cycle), and
// chunks of a same-N single-source rig for the streamlet cost. It returns
// the tracing overhead share of the chunk.
func blocksLayers(b *bench, tr *tracer, seconds float64) float64 {
	in := newBlockInputs(b.seed)
	rig, err := newBlockRig(in, true)
	if err != nil {
		b.check(err)
		return 0
	}
	single, err := newBlockRig(in, false)
	if err != nil {
		b.check(err)
		return 0
	}
	for i := 0; i < blockWarmRounds; i++ {
		rig.run(false)
		single.run(false)
	}
	aggFrames := float64(blockSlots / blockAggEvery * blockChunk)
	var bare, traced, singleNs, compares, fastpath, txPerCycle, allocs []float64
	nw := rig.sched.Network()
	b.startTiming(seconds)
	for i := 0; b.timeLeft() && rig.err == nil; i++ {
		if i%8 == 7 {
			rig.run(true) // the full-order check, untimed
			b.attempted++
			continue
		}
		cmp0, fb0 := nw.Compares(), nw.CascadeFallbacks()
		mem0 := readMem()
		if i%2 == 1 {
			rig.spans = tr
			rig.chunk = tr.begin("blocks.chunk", -1, time.Now())
		}
		d, frames := rig.run(false)
		tr.finish(rig.chunk, time.Now())
		rig.spans, rig.chunk = nil, -1
		mem := readMem().since(mem0)
		cmp, fb := nw.Compares()-cmp0, nw.CascadeFallbacks()-fb0
		b.attempted++
		if i%2 == 1 {
			traced = append(traced, float64(d.Nanoseconds()))
		} else {
			bare = append(bare, float64(d.Nanoseconds()))
		}
		compares = append(compares, float64(cmp)/blockChunk)
		fastpath = append(fastpath, 1-float64(fb)/float64(cmp))
		txPerCycle = append(txPerCycle, float64(frames)/blockChunk)
		allocs = append(allocs, float64(mem.objects)/float64(frames))

		t := time.Now()
		sd, _ := single.run(false)
		tr.add("blocks.single_chunk", -1, t, time.Now())
		b.attempted++
		singleNs = append(singleNs, float64(sd.Nanoseconds()))
	}
	b.check(rig.err)
	b.check(single.err)
	b.check(rig.checkAggregates(in))
	b.put("core.busy_cycle_ns", "ns", median(bare)/blockChunk)
	b.put("shuffle.compares_per_cycle", "count", median(compares))
	b.put("shuffle.fastpath_share", "share", median(fastpath))
	b.put("core.transmissions_per_cycle", "count", median(txPerCycle))
	b.put("streamlet.ns_per_frame", "ns", (median(bare)-median(singleNs))/aggFrames)
	b.put("core.allocs_per_frame", "count", median(allocs))
	return median(traced)/median(bare) - 1
}

package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/attr"
	"repro/internal/core"
	"repro/internal/decision"
	"repro/internal/endsystem"
	"repro/internal/fault"
	"repro/internal/pci"
	"repro/internal/qm"
	"repro/internal/ringbuf"
	"repro/internal/shard"
	"repro/internal/stats"
)

// The pipeline workload is the paper's Figure-3 endsystem at its §5.2 PIO
// operating point: one shard of 32 backlogged EDF slots driven by
// endsystem.RunSharded and its goroutine-per-stage driver. Its inputs are
// fixed by that configuration, so the seed changes nothing here.
const (
	pipeSlots      = 32
	pipeFrames     = 64 // per stream per call: 2048 frames, ~3 ms
	pipeWarmCalls  = 160
	pipeCallsRound = 16 // RunSharded calls per round, one CPU window; each round ends with one crash-recovery run
	// pipeCrashSeed fixes the supervised run's crash point, so every seed
	// redoes the same work on recovery.
	pipeCrashSeed = 7
)

// paperPIOPPS is the paper's §5.2 PIO operating point.
const paperPIOPPS = 299065

func pipelineCall() (*shard.Result, error) {
	return endsystem.RunSharded(1, pipeSlots, pipeFrames, pci.ModePIO)
}

// pipelineRecovery runs the same endsystem under the supervisor with one
// injected shard crash: the batch path's recovery is a pipeline restart.
func pipelineRecovery() error {
	sched, err := fault.NewSchedule(fault.Profile{Seed: pipeCrashSeed, Shards: 1, ShardCrashes: 1,
		Horizon: pipeSlots * pipeFrames})
	if err != nil {
		return err
	}
	res, err := endsystem.RunShardedSupervised(1, pipeSlots, pipeFrames, pci.ModePIO, sched, shard.RecoveryConfig{}, nil)
	if err != nil {
		return err
	}
	return checkRecovered(res.Target, res.Delivered, res.Dropped, res.Restarts)
}

func pipelineEndToEnd(b *bench, start time.Time) {
	for i := 0; i < pipeWarmCalls; i++ {
		res, err := pipelineCall()
		b.check(err)
		if err == nil {
			b.check(checkPipeline(res))
		}
	}
	b.check(pipelineRecovery())
	b.put("setup_s", "s", time.Since(start).Seconds())

	b.startTiming(b.seconds)
	p := newPieces(pipeCallsRound)
	var recovery []float64
	for b.timeLeft() {
		for i := 0; i < pipeCallsRound; i++ {
			p.next()
			t := time.Now()
			res, err := pipelineCall()
			d := time.Since(t)
			b.attempted++
			if err != nil {
				b.failed++
				b.check(err)
				continue
			}
			b.check(checkPipeline(res))
			p.add(d, int(res.Frames))
		}
		t := time.Now()
		err := pipelineRecovery()
		recovery = append(recovery, time.Since(t).Seconds())
		b.attempted++
		b.check(err)
		runtime.GC() // the recovery run's garbage is not the calls' cost
	}
	p.endToEnd(b)
	b.put("recovery_s", "s", median(recovery))
}

// checkPipeline checks one RunSharded result: every slot delivers exactly
// its frames, and the modelled rate is the paper's PIO operating point.
func checkPipeline(res *shard.Result) error {
	if len(res.PerShard) != 1 {
		return fmt.Errorf("pipeline: %d shard results, want 1", len(res.PerShard))
	}
	if err := checkPerSlot(res.PerShard[0].PerSlot, pipeSlots, pipeFrames); err != nil {
		return err
	}
	if res.Frames != pipeSlots*pipeFrames {
		return fmt.Errorf("pipeline: delivered %d frames, want %d", res.Frames, pipeSlots*pipeFrames)
	}
	return checkOperatingPoint(res.PacketsPerS)
}

// replica is a single-goroutine copy of one RunSharded shard built from
// the layers' public calls — qm Submit, core RunCycles, ringbuf Push/Pop,
// the PCI batch meter and a stats bandwidth meter — each timed as a batch.
type replica struct {
	perSlot   []uint64
	modeledNs float64

	submit, cycles, handoff, meter, record time.Duration
	busyCycles                             int
}

func runReplica(tr *tracer, parent int32) (*replica, error) {
	m, err := qm.New(pipeSlots, 1024)
	if err != nil {
		return nil, err
	}
	sched, err := core.New(core.Config{Slots: pipeSlots, Mode: decision.ProgramDWCS.Mode(), Routing: core.WinnerOnly})
	if err != nil {
		return nil, err
	}
	spec := attr.Spec{Class: attr.EDF, Period: pipeSlots}
	for slot := 0; slot < pipeSlots; slot++ {
		if err := m.Describe(slot, spec); err != nil {
			return nil, err
		}
		if err := sched.Admit(slot, spec, m.Source(slot)); err != nil {
			return nil, err
		}
	}
	if err := sched.Start(); err != nil {
		return nil, err
	}
	ring, err := ringbuf.New[core.Transmission](1024)
	if err != nil {
		return nil, err
	}
	bus, err := pci.New(pci.DefaultConfig())
	if err != nil {
		return nil, err
	}
	meterBatch := bus.BatchMeter(pci.ModePIO)
	total := pipeSlots * pipeFrames
	bw, err := stats.NewBandwidthMeter(1, float64(total)*endsystem.HostCostNs/32)
	if err != nil {
		return nil, err
	}
	r := &replica{perSlot: make([]uint64, pipeSlots)}

	t := time.Now()
	for k := 0; k < pipeFrames; k++ {
		for slot := 0; slot < pipeSlots; slot++ {
			if !m.Submit(slot, qm.Frame{Size: 1500, Arrival: uint64(k)}) {
				return nil, fmt.Errorf("replica: ring of slot %d full", slot)
			}
		}
	}
	e := time.Now()
	r.submit = e.Sub(t)
	tr.add("qm.submit", parent, t, e)

	batch := make([]core.Transmission, 0, 256)
	delivered, sinceMeter := 0, 0
	for delivered < total {
		batch = batch[:0]
		t = time.Now()
		n := sched.RunCycles(256, func(cr *core.CycleResult) bool {
			batch = append(batch, cr.Transmissions...)
			return delivered+len(batch) < total
		})
		e = time.Now()
		r.cycles += e.Sub(t)
		r.busyCycles += n
		tr.add("core.run_cycles", parent, t, e)

		t = e
		for _, tx := range batch {
			if !ring.Push(tx) {
				return nil, fmt.Errorf("replica: tx ring full")
			}
		}
		for range batch {
			if _, ok := ring.Pop(); !ok {
				return nil, fmt.Errorf("replica: tx ring lost a frame")
			}
		}
		e = time.Now()
		r.handoff += e.Sub(t)
		tr.add("ringbuf.handoff", parent, t, e)

		t = e
		for range batch {
			sinceMeter++
			if sinceMeter == endsystem.TransferBatch {
				if err := meterBatch(sinceMeter); err != nil {
					return nil, err
				}
				sinceMeter = 0
			}
		}
		e = time.Now()
		r.meter += e.Sub(t)
		tr.add("pci.meter", parent, t, e)

		t = e
		for _, tx := range batch {
			r.perSlot[tx.Slot]++
			delivered++
			if err := bw.Record(0, 1500, float64(delivered)*endsystem.HostCostNs); err != nil {
				return nil, err
			}
		}
		e = time.Now()
		r.record += e.Sub(t)
		tr.add("tx.record", parent, t, e)
	}
	if sinceMeter > 0 {
		if err := meterBatch(sinceMeter); err != nil {
			return nil, err
		}
	}
	bw.Finish()
	r.modeledNs = float64(total)*endsystem.HostCostNs + bus.BusyNs
	return r, nil
}

// pipelineLayers is the pipeline family of the traced pass: RunSharded
// calls (alternately bare and inside a span) interleaved with replica
// calls. It returns the tracing overhead share of the RunSharded piece.
func pipelineLayers(b *bench, tr *tracer, seconds float64) float64 {
	for i := 0; i < pipeWarmCalls/4; i++ {
		_, err := pipelineCall()
		b.check(err)
	}
	var bare, traced, submit, cycle, handoff, meter, record, stageSum, allocs, modeled []float64
	frames := float64(pipeSlots * pipeFrames)
	b.startTiming(seconds)
	for i := 0; b.timeLeft(); i++ {
		before := readMem()
		t := time.Now()
		id := int32(-1)
		if i%2 == 1 {
			id = tr.begin("endsystem.run_sharded", -1, t)
		}
		res, err := pipelineCall()
		e := time.Now()
		tr.finish(id, e)
		after := readMem()
		b.attempted++
		if err != nil {
			b.failed++
			b.check(err)
			continue
		}
		b.check(checkPipeline(res))
		ns := float64(e.Sub(t).Nanoseconds())
		if i%2 == 1 {
			traced = append(traced, ns)
		} else {
			bare = append(bare, ns)
		}
		allocs = append(allocs, float64(after.since(before).objects)/frames)
		modeled = append(modeled, res.VirtualNs/float64(res.Frames))

		t = time.Now()
		parent := tr.begin("replica.call", -1, t)
		rep, err := runReplica(tr, parent)
		tr.finish(parent, time.Now())
		b.attempted++
		if err != nil {
			b.failed++
			b.check(err)
			continue
		}
		b.check(checkReplica(rep.perSlot, res.PerShard[0].PerSlot, rep.modeledNs, res.VirtualNs))
		perFrame := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / frames }
		submit = append(submit, perFrame(rep.submit))
		cycle = append(cycle, float64(rep.cycles.Nanoseconds())/float64(rep.busyCycles))
		handoff = append(handoff, perFrame(rep.handoff))
		meter = append(meter, perFrame(rep.meter))
		record = append(record, perFrame(rep.record))
		stageSum = append(stageSum, perFrame(rep.submit+rep.cycles+rep.handoff+rep.meter+rep.record))
	}
	b.put("qm.submit_ns", "ns", median(submit))
	b.put("core.replica_cycle_ns", "ns", median(cycle))
	b.put("ringbuf.handoff_ns", "ns", median(handoff))
	b.put("pci.meter_ns", "ns", median(meter))
	b.put("tx.record_ns", "ns", median(record))
	b.put("endsystem.driver_ns_per_frame", "ns", median(bare)/frames-median(stageSum))
	b.put("allocs_per_frame", "count", median(allocs))
	b.put("pci.modeled_ns_per_frame", "ns_modeled", median(modeled))
	return median(traced)/median(bare) - 1
}

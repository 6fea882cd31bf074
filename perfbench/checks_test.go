package main

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/ctlplane"
	"repro/internal/endsystem"
	"repro/internal/pci"
)

// Each check passes on a real output and fails on the same output broken
// on purpose.

func realBlock(t *testing.T) []core.Transmission {
	t.Helper()
	rig, err := newBlockRig(newBlockInputs(1), true)
	if err != nil {
		t.Fatal(err)
	}
	var block []core.Transmission
	rig.sched.RunCycles(3, func(cr *core.CycleResult) bool {
		block = append(block[:0], cr.Transmissions...)
		return true
	})
	return block
}

func shapeErr(block []core.Transmission) error {
	return checkBlockShape(block, blockSlots, make([]uint64, blockSlots), 1)
}

func TestBlockChecks(t *testing.T) {
	block := realBlock(t)
	if err := shapeErr(block); err != nil {
		t.Fatalf("real block fails the shape check: %v", err)
	}
	if err := checkBlockOrder(block); err != nil {
		t.Fatalf("real block fails the order check: %v", err)
	}

	// Two deadlines swapped: pick the first compare-exchanged pair whose
	// deadlines differ and swap it.
	j := 0
	for block[j].Deadline == block[j+1].Deadline {
		j += 2
	}
	swapped := append([]core.Transmission(nil), block...)
	swapped[j].Deadline, swapped[j+1].Deadline = swapped[j+1].Deadline, swapped[j].Deadline
	if shapeErr(swapped) == nil {
		t.Error("shape check passed a block with a pair's deadlines swapped")
	}
	if checkBlockOrder(swapped) == nil {
		t.Error("order check passed a block with a pair's deadlines swapped")
	}

	// Two deadlines swapped across pairs, between positions the order check
	// relates (k = j|2) but the per-cycle shape check does not.
	far := append([]core.Transmission(nil), block...)
	for j = 0; j+2 < len(far); j += 4 {
		if far[j].Deadline != far[j+2].Deadline {
			break
		}
	}
	far[j].Deadline, far[j+2].Deadline = far[j+2].Deadline, far[j].Deadline
	if checkBlockOrder(far) == nil {
		t.Errorf("order check passed a block with positions %d and %d swapped", j, j+2)
	}

	dup := append([]core.Transmission(nil), block...)
	dup[5].Slot = dup[4].Slot
	if shapeErr(dup) == nil {
		t.Error("shape check passed a block carrying one slot twice")
	}
	if shapeErr(block[:len(block)-1]) == nil {
		t.Error("shape check passed a block missing a slot")
	}
}

func TestPerSlotCheck(t *testing.T) {
	res, err := pipelineCall()
	if err != nil {
		t.Fatal(err)
	}
	if err := checkPipeline(res); err != nil {
		t.Fatalf("real RunSharded result fails: %v", err)
	}
	perSlot := res.PerShard[0].PerSlot
	perSlot[7]--
	if checkPipeline(res) == nil {
		t.Error("pipeline check passed a per-slot count off by one")
	}
	perSlot[7]++
	perSlot[pipeSlots-1]++
	if checkPerSlot(perSlot, pipeSlots, pipeFrames) == nil {
		t.Error("per-slot check passed a count off by one")
	}
}

func TestOperatingPointCheck(t *testing.T) {
	op, err := endsystem.Throughput(pci.ModeNone)
	if err != nil {
		t.Fatal(err)
	}
	if checkOperatingPoint(op.PacketsPerS) == nil {
		t.Errorf("operating-point check passed the no-PCI point %.0f pps", op.PacketsPerS)
	}
	if checkOperatingPoint(paperPIOPPS+1) == nil {
		t.Error("operating-point check passed a rate one packet off")
	}
}

func TestReplicaCheck(t *testing.T) {
	rep, err := runReplica(nil, -1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := pipelineCall()
	if err != nil {
		t.Fatal(err)
	}
	if err := checkReplica(rep.perSlot, res.PerShard[0].PerSlot, rep.modeledNs, res.VirtualNs); err != nil {
		t.Fatalf("real replica disagrees with RunSharded: %v", err)
	}
	rep.perSlot[3]++
	if checkReplica(rep.perSlot, res.PerShard[0].PerSlot, rep.modeledNs, res.VirtualNs) == nil {
		t.Error("replica check passed a per-slot count off by one")
	}
	rep.perSlot[3]--
	if checkReplica(rep.perSlot, res.PerShard[0].PerSlot, rep.modeledNs+1, res.VirtualNs) == nil {
		t.Error("replica check passed a modelled time off by 1 ns")
	}
}

func TestRecoveryChecks(t *testing.T) {
	if err := pipelineRecovery(); err != nil {
		t.Fatalf("real crash recovery fails: %v", err)
	}
	if checkRecovered(100, 99, 0, 1) == nil {
		t.Error("recovery check passed a lost frame")
	}
	if checkRecovered(100, 100, 0, 0) == nil {
		t.Error("recovery check passed a run without its restart")
	}
	in := newBlockInputs(3)
	rig, err := newBlockRig(in, true)
	if err != nil {
		t.Fatal(err)
	}
	d, err := rig.digest()
	if err != nil {
		t.Fatal(err)
	}
	if err := blockRecovery(in, d); err != nil {
		t.Fatalf("re-executing the first chunk fails: %v", err)
	}
	if blockRecovery(newBlockInputs(4), d) == nil {
		t.Error("recovery check passed a re-execution from another seed")
	}
}

func TestAggregationChecks(t *testing.T) {
	in := newBlockInputs(2)
	rig, err := newBlockRig(in, true)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		rig.run(i%4 == 0)
	}
	if rig.err != nil {
		t.Fatal(rig.err)
	}
	if err := rig.checkAggregates(in); err != nil {
		t.Fatalf("real aggregated slots fail: %v", err)
	}
	if err := checkWRR([]uint64{200, 100}, []int{2, 1}); err != nil {
		t.Errorf("exact 2:1 split fails: %v", err)
	}
	if checkWRR([]uint64{203, 97}, []int{2, 1}) == nil {
		t.Error("WRR check passed a split three frames off")
	}
	if checkRoundRobin([]uint64{10, 10, 12}) == nil {
		t.Error("round-robin check passed a spread of two")
	}
}

func TestFenceChecks(t *testing.T) {
	eng, err := endsystem.NewService(endsystem.ServiceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	load, reqs := newServiceLoad(1, serviceShapes["service-sparse"], eng.Router().ShardOf)
	for _, r := range reqs {
		eng.Enqueue(r)
	}
	prev := eng.Ledger()
	rep := eng.Step()
	if err := checkFence(rep, prev, true, svcShards*svcCycles); err != nil {
		t.Fatalf("real admission fence fails: %v", err)
	}
	prev = eng.Ledger()
	for _, r := range load.churn() {
		eng.Enqueue(r)
	}
	rep = eng.Step()
	if err := checkFence(rep, prev, true, svcShards*svcCycles); err != nil {
		t.Fatalf("real churn fence fails: %v", err)
	}

	broken := rep
	broken.Ledger.Delivered--
	broken.Balanced = broken.Ledger.Balanced()
	if checkFence(broken, prev, true, svcShards*svcCycles) == nil {
		t.Error("fence check passed an unbalanced ledger")
	}
	broken = rep
	broken.Responses = append([]ctlplane.Response(nil), rep.Responses...)
	broken.Responses[0].Err = "refused"
	if checkFence(broken, prev, true, svcShards*svcCycles) == nil {
		t.Error("fence check passed a failed admin request")
	}
	broken = rep
	broken.Ledger.Delivered--
	broken.Ledger.InFlight++
	if checkFence(broken, prev, true, svcShards*svcCycles) == nil {
		t.Error("sparse fence check passed a frame left undelivered")
	}
	if checkFence(rep, prev, false, 10) == nil {
		t.Error("fence check passed deliveries over the cycle budget")
	}
}

func TestReplayCheck(t *testing.T) {
	var journal bytes.Buffer
	eng, err := endsystem.NewService(endsystem.ServiceConfig{Journal: &journal})
	if err != nil {
		t.Fatal(err)
	}
	load, reqs := newServiceLoad(5, serviceShapes["service-sparse"], eng.Router().ShardOf)
	for i := 0; i < 20; i++ {
		for _, r := range reqs {
			eng.Enqueue(r)
		}
		eng.Step()
		reqs = load.churn()
	}
	replayed, _, err := ctlplane.Replay(bytes.NewReader(journal.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	live := stateOf(eng)
	if err := checkReplay(live, stateOf(replayed)); err != nil {
		t.Fatalf("real replay diverges: %v", err)
	}
	diverged := stateOf(replayed)
	diverged.hash ^= 1
	if checkReplay(live, diverged) == nil {
		t.Error("replay check passed a diverging journal hash")
	}
	diverged = stateOf(replayed)
	diverged.offering[0].Spec.Period++
	if checkReplay(live, diverged) == nil {
		t.Error("replay check passed a diverging offering")
	}
}

func TestReconstructionCheck(t *testing.T) {
	shape := serviceShapes["service-overload"]
	eng, err := endsystem.NewService(endsystem.ServiceConfig{FramesPerStream: shape.frames})
	if err != nil {
		t.Fatal(err)
	}
	rc, err := newRecon(shape.frames)
	if err != nil {
		t.Fatal(err)
	}
	_, reqs := newServiceLoad(1, shape, eng.Router().ShardOf)
	for i := 0; i < 30; i++ {
		for _, r := range reqs {
			eng.Enqueue(r)
		}
		prev := eng.Ledger()
		rep := eng.Step()
		rf, err := rc.fence(reqs, nil, -1)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkReconstruction(rep.Epoch, rep.Ledger.Delivered-prev.Delivered, rf.delivered); err != nil {
			t.Fatalf("real reconstruction disagrees: %v", err)
		}
		if checkReconstruction(rep.Epoch, rep.Ledger.Delivered-prev.Delivered, rf.delivered+1) == nil {
			t.Fatal("reconstruction check passed a delivery off by one")
		}
		reqs = nil
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := quantile(xs, 0.9); got < 3.6999 || got > 3.7001 {
		t.Errorf("p90 = %v, want 3.7", got)
	}
	if xs[0] != 4 {
		t.Error("quantile sorted its input in place")
	}
}

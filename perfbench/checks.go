package main

import (
	"fmt"
	"math"

	"repro/internal/attr"
	"repro/internal/core"
	"repro/internal/ctlplane"
)

// The checks below judge each workload's outputs against a property or an
// independent computation, never against a stored copy of an earlier run.

// checkPerSlot checks that each of the first slots slots delivered exactly
// frames frames and that no other slot delivered any.
func checkPerSlot(perSlot []uint64, slots, frames int) error {
	for i, n := range perSlot {
		want := uint64(frames)
		if i >= slots {
			want = 0
		}
		if n != want {
			return fmt.Errorf("slot %d delivered %d frames, want %d", i, n, want)
		}
	}
	if len(perSlot) < slots {
		return fmt.Errorf("%d slot counts, want %d", len(perSlot), slots)
	}
	return nil
}

// checkOperatingPoint checks a modelled rate against the paper's PIO
// operating point: 1e9 / (host cost + per-packet PIO transfer cost).
func checkOperatingPoint(pps float64) error {
	if math.Round(pps) != paperPIOPPS {
		return fmt.Errorf("modelled rate %.3f pps, want the paper's PIO point %d", pps, paperPIOPPS)
	}
	return nil
}

// checkReplica checks the single-goroutine replica against RunSharded: the
// same frames per slot and the same modelled time.
func checkReplica(replica, run []uint64, replicaNs, runNs float64) error {
	if len(replica) != len(run) {
		return fmt.Errorf("replica has %d slots, RunSharded %d", len(replica), len(run))
	}
	for i := range run {
		if replica[i] != run[i] {
			return fmt.Errorf("replica slot %d delivered %d frames, RunSharded %d", i, replica[i], run[i])
		}
	}
	if replicaNs != runNs {
		return fmt.Errorf("replica modelled %.1f ns, RunSharded %.1f ns", replicaNs, runNs)
	}
	return nil
}

// checkRecovered checks a supervised run with one injected crash: one
// restart, and every frame accounted for.
func checkRecovered(target, delivered, dropped uint64, restarts int) error {
	if restarts != 1 {
		return fmt.Errorf("recovery: %d restarts, want 1", restarts)
	}
	if delivered+dropped != target || delivered == 0 {
		return fmt.Errorf("recovery: delivered %d + dropped %d of %d frames", delivered, dropped, target)
	}
	return nil
}

// checkBlockShape checks one BA block transaction cheaply enough to run on
// every cycle: it carries each of the n backlogged slots exactly once, its
// head carries the block's earliest deadline, and each pair the network's
// last pass compare-exchanged leaves in deadline order. seen is scratch
// holding the cycle stamp of each slot's last appearance; stamp must differ
// from every stamp already in it.
func checkBlockShape(tx []core.Transmission, n int, seen []uint64, stamp uint64) error {
	if len(tx) != n {
		return fmt.Errorf("block carries %d frames, want %d", len(tx), n)
	}
	for j := range tx {
		s := int(tx[j].Slot)
		if s >= len(seen) || seen[s] == stamp {
			return fmt.Errorf("block position %d repeats or overflows slot %d", j, s)
		}
		seen[s] = stamp
		if serialBefore(tx[j].Deadline, tx[0].Deadline) {
			return fmt.Errorf("block head deadline %d is not the earliest (position %d has %d)",
				tx[0].Deadline, j, tx[j].Deadline)
		}
		if j&1 == 1 && serialBefore(tx[j].Deadline, tx[j-1].Deadline) {
			return fmt.Errorf("block pair (%d,%d) leaves out of deadline order", j-1, j)
		}
	}
	return nil
}

// checkBlockOrder checks the full order property of a block from the
// paper's log2 N shuffle-exchange passes, whose compare-exchanges along
// every index bit leave the block sorted along every bit: position j never
// carries a later deadline than position j|1<<b. (The block is not sorted
// end to end; only the bitonic schedule sorts it.) Deadlines compare in
// 16-bit serial order.
func checkBlockOrder(tx []core.Transmission) error {
	for j := range tx {
		for bit := 1; bit < len(tx); bit <<= 1 {
			k := j | bit
			if j&bit != 0 || k >= len(tx) {
				continue
			}
			if serialBefore(tx[k].Deadline, tx[j].Deadline) {
				return fmt.Errorf("block position %d (deadline %d) precedes position %d (deadline %d)",
					j, tx[j].Deadline, k, tx[k].Deadline)
			}
		}
	}
	return nil
}

// serialBefore reports a < b in 16-bit serial-number order.
func serialBefore(a, b attr.Time16) bool { return int16(a-b) < 0 }

// checkWRR checks an aggregated slot's service split: served[s] frames
// went to set s of weight weights[s]. Weighted round robin hands each set
// its weight per rotation, so after t frames each set is within one
// rotation's share of t·w/W.
func checkWRR(served []uint64, weights []int) error {
	var total uint64
	var wsum int
	for s := range served {
		total += served[s]
		wsum += weights[s]
	}
	for s := range served {
		ideal := float64(total) * float64(weights[s]) / float64(wsum)
		if math.Abs(float64(served[s])-ideal) > float64(weights[s]) {
			return fmt.Errorf("set %d (weight %d) served %d of %d frames, ideal %.1f",
				s, weights[s], served[s], total, ideal)
		}
	}
	return nil
}

// checkRoundRobin checks the plain round robin within one set: streamlet
// counts differ by at most one.
func checkRoundRobin(served []uint64) error {
	lo, hi := served[0], served[0]
	for _, n := range served {
		lo, hi = min(lo, n), max(hi, n)
	}
	if hi-lo > 1 {
		return fmt.Errorf("streamlets served %d..%d frames, round robin allows a spread of 1", lo, hi)
	}
	return nil
}

// checkFence checks one control-plane fence: the ledger balances, every
// admin request succeeded, and the fence's deliveries are right for the
// shape — equal to the frames offered in it when the load is sparse, at
// most the cycle budget otherwise.
func checkFence(rep ctlplane.EpochReport, prev ctlplane.Ledger, sparse bool, budget uint64) error {
	if !rep.Balanced || !rep.Ledger.Balanced() {
		return fmt.Errorf("fence %d: ledger does not balance: %+v", rep.Epoch, rep.Ledger)
	}
	for _, r := range rep.Responses {
		if !r.OK() {
			return fmt.Errorf("fence %d: %v request for stream %d failed: %s", rep.Epoch, r.Op, r.Stream, r.Err)
		}
	}
	delivered := rep.Ledger.Delivered - prev.Delivered
	offered := rep.Ledger.Offered - prev.Offered
	if sparse && delivered != offered {
		return fmt.Errorf("fence %d: delivered %d of %d offered frames", rep.Epoch, delivered, offered)
	}
	if delivered > budget {
		return fmt.Errorf("fence %d: delivered %d frames, over the %d-cycle budget", rep.Epoch, delivered, budget)
	}
	return nil
}

// liveState is what a replayed engine must reproduce of the live one.
type liveState struct {
	hash, lines uint64
	ledger      ctlplane.Ledger
	offering    []ctlplane.StreamEntry
}

func stateOf(e *ctlplane.Engine) liveState {
	h, l := e.JournalSum()
	return liveState{hash: h, lines: l, ledger: e.Ledger(), offering: e.Offering()}
}

// checkReplay compares a replayed engine's state with the live engine's.
func checkReplay(live, replayed liveState) error {
	if live.hash != replayed.hash || live.lines != replayed.lines {
		return fmt.Errorf("replay journal %x/%d lines, live %x/%d", replayed.hash, replayed.lines, live.hash, live.lines)
	}
	if live.ledger != replayed.ledger {
		return fmt.Errorf("replay ledger %+v, live %+v", replayed.ledger, live.ledger)
	}
	if len(live.offering) != len(replayed.offering) {
		return fmt.Errorf("replay offers %d streams, live %d", len(replayed.offering), len(live.offering))
	}
	for i := range live.offering {
		if live.offering[i] != replayed.offering[i] {
			return fmt.Errorf("replay offering entry %d is %+v, live %+v", i, replayed.offering[i], live.offering[i])
		}
	}
	return nil
}

// checkReconstruction checks the traced reconstruction against the
// engine: the same deliveries at the same fence.
func checkReconstruction(epoch, engineDelivered, reconDelivered uint64) error {
	if engineDelivered != reconDelivered {
		return fmt.Errorf("fence %d: engine delivered %d frames, reconstruction %d", epoch, engineDelivered, reconDelivered)
	}
	return nil
}

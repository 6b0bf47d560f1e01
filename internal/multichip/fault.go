package multichip

import (
	"sort"

	"mbrim/internal/fault"
	"mbrim/internal/interconnect"
	"mbrim/internal/obs"
	"mbrim/internal/rng"
)

// This file threads the fault-injection layer (internal/fault) through
// the multiprocessor runtime: message faults on the epoch-boundary
// broadcasts, transient chip stalls, permanent chip loss, and the
// recovery policies — CRC detect + bounded retransmit, the
// shadow-staleness watchdog, and graceful degradation by repartition.
// Everything here is inert (s.frt == nil) unless Config.Faults is
// enabled, keeping fault-free runs bit-identical to the seed
// simulation.

// faultRuntime is the per-run mutable state of the fault layer. All
// mutation happens at epoch barriers on one goroutine; the injector
// itself is stateless and may be consulted from chip goroutines.
type faultRuntime struct {
	inj  *fault.Injector
	dead []bool // per-chip permanent-loss flags (current chip indexing)
	// holds marks chips whose integration freezes this epoch; computed
	// at the epoch barrier in chip order so event emission and
	// schedules are deterministic under host parallelism.
	holds []bool
	// pending are delayed boundary broadcasts awaiting delivery at the
	// next epoch (concurrent/sequential modes).
	pending []delayedMsg
	// pendingBatch are delayed batch-mode writebacks keyed by job.
	pendingBatch []delayedWriteback
	// epochStallNS is recovery stall accumulated this epoch (retransmit
	// backoff, repartition reprogramming), drained by takeEpochStall.
	epochStallNS float64
	stats        fault.Stats
}

// delayedMsg is one epoch-late boundary broadcast. from uses the chip
// indexing current at send time; repartition clears the queue, so the
// index never dangles.
type delayedMsg struct {
	from int
	ups  []update
}

// delayedWriteback is one epoch-late batch-mode job writeback.
type delayedWriteback struct {
	job int
	ups []update
}

func newFaultRuntime(inj *fault.Injector) *faultRuntime {
	return &faultRuntime{inj: inj}
}

// emit forwards an event when tracing is live.
func emitIf(tr obs.Tracer, e obs.Event) {
	if tr != nil {
		tr.Emit(e)
	}
}

// takeEpochStall drains the recovery stall accumulated this epoch,
// charging it to the fabric's stall ledger so Result.StallNS stays the
// one honest total.
func (frt *faultRuntime) takeEpochStall(f *interconnect.Fabric) float64 {
	ns := frt.epochStallNS
	frt.epochStallNS = 0
	if ns > 0 {
		f.AddStall(ns)
	}
	return ns
}

// liveFanout counts the live receivers of chip ci's broadcasts.
func (s *System) liveFanout(ci int) int {
	n := 0
	for di := range s.chips {
		if di != ci && !s.frt.dead[di] {
			n++
		}
	}
	return n
}

// liveChips counts chips still operating.
func (s *System) liveChips() int {
	if s.frt == nil {
		return len(s.chips)
	}
	n := 0
	for ci := range s.chips {
		if !s.frt.dead[ci] {
			n++
		}
	}
	return n
}

// beginFaultEpoch runs the epoch-start fault bookkeeping at the
// barrier, in chip order: permanent chip loss (with optional
// repartition recovery, which rebuilds s.chips), then this epoch's
// transient stall draws. remainingNS is the model time left in the
// run — the horizon handed to repartitioned machines.
func (s *System) beginFaultEpoch(epochNo int, remainingNS float64, tr obs.Tracer) {
	frt := s.frt
	if frt.dead == nil || len(frt.dead) != len(s.chips) {
		frt.dead = make([]bool, len(s.chips))
	}
	if victim, lost := frt.inj.LostChip(epochNo); lost && !frt.dead[victim] {
		frt.dead[victim] = true
		frt.stats.ChipLosses++
		emitIf(tr, obs.Event{Kind: obs.Fault, Label: "chip-loss", Epoch: epochNo,
			Chip: victim, Count: int64(len(s.chips[victim].owned))})
		s.cfg.Metrics.Counter("fault.chip_losses").Inc()
		if frt.inj.Config().Recovery.Repartition && s.liveChips() >= 1 && len(s.chips) > 1 {
			s.repartition(victim, epochNo, remainingNS, tr)
		}
	}
	if len(frt.holds) != len(s.chips) {
		frt.holds = make([]bool, len(s.chips))
	}
	for ci := range s.chips {
		frt.holds[ci] = false
		if frt.dead[ci] {
			continue
		}
		if frt.inj.ChipStalled(epochNo, ci) {
			frt.holds[ci] = true
			frt.stats.Stalls++
			emitIf(tr, obs.Event{Kind: obs.Fault, Label: "stall", Epoch: epochNo, Chip: ci})
			s.cfg.Metrics.Counter("fault.stalls").Inc()
		}
	}
}

// repartition is the graceful-degradation recovery: the dead chip's
// slice is redistributed round-robin onto the survivors, which are
// reprogrammed (via the same chip-construction machinery the
// reconfigurable module array uses) and warm-started from the current
// global truth. The cost is charged honestly: each survivor broadcasts
// a bitmap of its newly acquired spins (kind "resync") and the system
// stalls RepartitionNSPerSpin per moved spin while coupler rows are
// rewritten.
func (s *System) repartition(victim, epochNo int, remainingNS float64, tr obs.Tracer) {
	frt := s.frt
	global := s.GlobalSpins() // includes the dead chip's frozen slice
	moved := s.chips[victim].owned
	var survivors []int
	for ci := range s.chips {
		if !frt.dead[ci] {
			survivors = append(survivors, ci)
		}
	}
	if len(survivors) == 0 {
		return
	}
	parts := make([][]int, len(survivors))
	added := make([]int, len(survivors))
	for i, ci := range survivors {
		parts[i] = append([]int(nil), s.chips[ci].owned...)
	}
	for i, g := range moved {
		parts[i%len(parts)] = append(parts[i%len(parts)], g)
		added[i%len(parts)]++
	}
	newChips := make([]*chip, len(survivors))
	newBelief := make([][]int8, len(survivors))
	newRNG := make([]*rng.Source, len(survivors))
	for i, part := range parts {
		sort.Ints(part)
		bc := s.cfg.Brim
		bc.Seed = s.cfg.Seed + uint64(survivors[i])
		nc := newChip(i, s.model, s.lat, part, s.scale, bc, s.cfg.EpochNS, global)
		nc.machine.SetHorizon(remainingNS)
		newChips[i] = nc
		newBelief[i] = nc.ownedSpins()
		newRNG[i] = s.induceRNG[survivors[i]]
	}
	s.chips = newChips
	s.receiverBelief = newBelief
	s.induceRNG = newRNG
	frt.dead = make([]bool, len(newChips))
	frt.holds = make([]bool, len(newChips))
	// In-flight delayed broadcasts describe the old configuration; the
	// full warm-start from global truth supersedes them.
	frt.pending = nil

	resyncBytes := 0.0
	for i := range newChips {
		if added[i] == 0 || len(newChips) == 1 {
			continue
		}
		b := float64(added[i]) / 8 * float64(len(newChips)-1)
		s.fabric.Record(i, b, "resync")
		resyncBytes += b
	}
	stallNS := frt.inj.Config().Recovery.RepartitionNSPerSpin * float64(len(moved))
	frt.epochStallNS += stallNS
	frt.stats.Repartitions++
	frt.stats.ResyncBytes += resyncBytes
	frt.stats.RecoveryStallNS += stallNS
	emitIf(tr, obs.Event{Kind: obs.Recovery, Label: "repartition", Epoch: epochNo,
		Chip: victim, Count: int64(len(moved)), Value: resyncBytes, StallNS: stallNS})
	s.spanPoint("recovery_repartition", victim, stallNS, int64(len(moved)), stallNS)
	s.cfg.Metrics.Counter("fault.repartitions").Inc()
}

// deliverPending applies last epoch's delayed broadcasts, in send
// order, before the current boundary's fresh updates are computed —
// late but in-order delivery.
func (s *System) deliverPending() {
	frt := s.frt
	if len(frt.pending) == 0 {
		return
	}
	for _, msg := range frt.pending {
		s.applyBroadcast(msg.ups)
	}
	frt.pending = frt.pending[:0]
}

// applyBroadcast updates every live non-owner chip's shadow registers
// with the payload.
func (s *System) applyBroadcast(ups []update) {
	for di, d := range s.chips {
		if s.frt != nil && s.frt.dead[di] {
			continue
		}
		for _, u := range ups {
			if _, own := d.local[u.g]; own {
				continue
			}
			d.applyShadowUpdate(u.g, u.v)
		}
	}
}

// faultSend pushes one boundary broadcast through the fault layer:
// charge the send, resolve drop/corrupt (with CRC detect + bounded
// retransmit when enabled), then deliver — immediately, one epoch
// late, corrupted, or not at all. Returns the bit changes transmitted
// and the induced subset, matching the fault-free accounting.
func (s *System) faultSend(epochNo, ci int, ups []update, tr obs.Tracer) (total, induced int64) {
	frt := s.frt
	cfg := frt.inj.Config()
	c := s.chips[ci]
	total = int64(len(ups))
	for _, u := range ups {
		if u.induced {
			induced++
		}
	}
	fanout := s.liveFanout(ci)
	bytes := interconnect.DeltaSyncBytes(len(ups), len(c.owned), fanout)
	s.fabric.Record(ci, bytes, "sync")

	plan := frt.inj.Message(epochNo, ci, 0)
	if plan.Drop {
		frt.stats.Drops++
		emitIf(tr, obs.Event{Kind: obs.Fault, Label: "drop", Epoch: epochNo, Chip: ci,
			Count: int64(len(ups))})
		s.cfg.Metrics.Counter("fault.drops").Inc()
	} else if plan.Corrupt {
		frt.stats.Corruptions++
		emitIf(tr, obs.Event{Kind: obs.Fault, Label: "corrupt", Epoch: epochNo, Chip: ci,
			Count: int64(len(ups))})
		s.cfg.Metrics.Counter("fault.corruptions").Inc()
	}

	delivered := true
	corrupt := plan.Corrupt
	salt := plan.Salt
	if plan.Faulted() && cfg.Recovery.Detect {
		// CRC caught the damage; retransmit with backoff, bounded.
		corrupt = false
		delivered = false
		attempts := 0
		for a := 1; a <= cfg.Recovery.MaxRetransmits; a++ {
			attempts++
			s.fabric.Record(ci, bytes, "retransmit")
			frt.stats.Retransmits++
			frt.stats.RetransmitBytes += bytes
			frt.stats.RecoveryStallNS += cfg.Recovery.RetransmitBackoffNS
			frt.epochStallNS += cfg.Recovery.RetransmitBackoffNS
			if !frt.inj.Message(epochNo, ci, a).Faulted() {
				delivered = true
				break
			}
		}
		emitIf(tr, obs.Event{Kind: obs.Recovery, Label: "retransmit", Epoch: epochNo,
			Chip: ci, Count: int64(attempts), Value: bytes * float64(attempts),
			StallNS: cfg.Recovery.RetransmitBackoffNS * float64(attempts)})
		backoff := cfg.Recovery.RetransmitBackoffNS * float64(attempts)
		s.spanPoint("recovery_retransmit", ci, backoff, int64(attempts), backoff)
		s.cfg.Metrics.Counter("fault.retransmits").Add(int64(attempts))
		if !delivered {
			// Retries exhausted: the sender KNOWS delivery failed, so
			// it keeps its belief ledger stale and the changes ride the
			// next boundary sync naturally.
			return total, induced
		}
	} else if plan.Drop {
		// Undetected loss: the sender believes it delivered. Commit the
		// belief ledger but never touch the shadows — silent staleness.
		delivered = false
	}

	// The sender now believes the payload landed (true for clean and
	// corrupted deliveries, silently false for undetected drops).
	for _, u := range ups {
		s.receiverBelief[ci][u.li] = u.v
	}
	if !delivered {
		return total, induced
	}

	payload := ups
	if corrupt || plan.Delay {
		// ups is syncEpoch's reused buffer: a payload that is altered
		// or parked for the next epoch gets its own copy.
		payload = append([]update(nil), ups...)
	}
	if corrupt {
		i := int(salt % uint64(len(payload)))
		payload[i].v = -payload[i].v
	}
	if plan.Delay {
		frt.stats.Delays++
		emitIf(tr, obs.Event{Kind: obs.Fault, Label: "delay", Epoch: epochNo, Chip: ci,
			Count: int64(len(ups))})
		s.cfg.Metrics.Counter("fault.delays").Inc()
		frt.pending = append(frt.pending, delayedMsg{from: ci, ups: payload})
		return total, induced
	}
	s.applyBroadcast(payload)
	return total, induced
}

// watchdog is the shadow-staleness recovery: after the boundary sync,
// any live chip whose receiver shadows diverge from its true readout
// by more than the threshold broadcasts a full bitmap of its slice,
// repairing every shadow and the belief ledger at full-bitmap cost.
// All receivers of a broadcast apply identical payloads, so one
// representative receiver measures the divergence exactly.
func (s *System) watchdog(epochNo int, tr obs.Tracer) {
	frt := s.frt
	th := frt.inj.Config().Recovery.WatchdogThreshold
	if th <= 0 || len(s.chips) < 2 {
		return
	}
	for ci, c := range s.chips {
		if frt.dead[ci] {
			continue
		}
		recv := -1
		for di := range s.chips {
			if di != ci && !frt.dead[di] {
				recv = di
				break
			}
		}
		if recv == -1 {
			continue
		}
		cur := c.machine.Spins()
		sh := s.chips[recv].shadow
		stale := 0
		for li, g := range c.owned {
			if sh[g] != cur[li] {
				stale++
			}
		}
		div := float64(stale) / float64(len(c.owned))
		s.cfg.Metrics.Histogram("fault.divergence").Observe(div)
		if div <= th {
			continue
		}
		fanout := s.liveFanout(ci)
		bytes := float64(len(c.owned)) / 8 * float64(fanout)
		s.fabric.Record(ci, bytes, "resync")
		for di, d := range s.chips {
			if di == ci || frt.dead[di] {
				continue
			}
			for li, g := range c.owned {
				d.applyShadowUpdate(g, cur[li])
			}
		}
		copy(s.receiverBelief[ci], cur)
		// Drop any delayed broadcast from this chip still in flight: the
		// bitmap supersedes it, and late delivery would re-stale the
		// freshly repaired shadows.
		kept := frt.pending[:0]
		for _, msg := range frt.pending {
			if msg.from != ci {
				kept = append(kept, msg)
			}
		}
		frt.pending = kept
		frt.stats.Resyncs++
		frt.stats.ResyncBytes += bytes
		emitIf(tr, obs.Event{Kind: obs.Recovery, Label: "resync", Epoch: epochNo,
			Chip: ci, Count: int64(len(c.owned)), Value: bytes, Aux: div})
		s.spanPoint("recovery_resync", ci, 0, int64(len(c.owned)), 0)
		s.cfg.Metrics.Counter("fault.resyncs").Inc()
	}
}

// accountBatchSend does the shared-state half of a batch-mode fault
// resolution at the barrier merge, in chip order: fabric retransmit
// charges, stall, stats, and events. bytes is the clean send's fabric
// cost (already recorded under "sync"); count is the writeback size.
func (s *System) accountBatchSend(epochNo, ci int, plan fault.MessagePlan, attempts int, lost, delayed bool, bytes float64, count int64, tr obs.Tracer) {
	frt := s.frt
	cfg := frt.inj.Config()
	if plan.Drop {
		frt.stats.Drops++
		emitIf(tr, obs.Event{Kind: obs.Fault, Label: "drop", Epoch: epochNo, Chip: ci, Count: count})
		s.cfg.Metrics.Counter("fault.drops").Inc()
	} else if plan.Corrupt {
		frt.stats.Corruptions++
		emitIf(tr, obs.Event{Kind: obs.Fault, Label: "corrupt", Epoch: epochNo, Chip: ci, Count: count})
		s.cfg.Metrics.Counter("fault.corruptions").Inc()
	}
	if attempts > 0 {
		for a := 0; a < attempts; a++ {
			s.fabric.Record(ci, bytes, "retransmit")
		}
		frt.stats.Retransmits += int64(attempts)
		frt.stats.RetransmitBytes += bytes * float64(attempts)
		backoff := cfg.Recovery.RetransmitBackoffNS * float64(attempts)
		frt.stats.RecoveryStallNS += backoff
		frt.epochStallNS += backoff
		emitIf(tr, obs.Event{Kind: obs.Recovery, Label: "retransmit", Epoch: epochNo,
			Chip: ci, Count: int64(attempts), Value: bytes * float64(attempts), StallNS: backoff})
		s.spanPoint("recovery_retransmit", ci, backoff, int64(attempts), backoff)
		s.cfg.Metrics.Counter("fault.retransmits").Add(int64(attempts))
	}
	if delayed && !lost {
		frt.stats.Delays++
		emitIf(tr, obs.Event{Kind: obs.Fault, Label: "delay", Epoch: epochNo, Chip: ci, Count: count})
		s.cfg.Metrics.Counter("fault.delays").Inc()
	}
}

// resolveBatchSend decides the fate of one batch-mode writeback
// broadcast without touching shared state, so chip goroutines can call
// it; the barrier merge does the accounting. It returns whether the
// payload lands, whether it lands a full epoch late, how many
// retransmit attempts were spent, and the (possibly corrupted)
// payload to apply.
func (frt *faultRuntime) resolveBatchSend(epochNo, ci int, ups []update) (delivered, delayed bool, attempts int, plan fault.MessagePlan, payload []update) {
	cfg := frt.inj.Config()
	plan = frt.inj.Message(epochNo, ci, 0)
	payload = ups
	delivered = true
	corrupt := plan.Corrupt
	if plan.Faulted() && cfg.Recovery.Detect {
		corrupt = false
		delivered = false
		for a := 1; a <= cfg.Recovery.MaxRetransmits; a++ {
			attempts++
			if !frt.inj.Message(epochNo, ci, a).Faulted() {
				delivered = true
				break
			}
		}
	} else if plan.Drop {
		delivered = false
	}
	if delivered && corrupt {
		payload = append([]update(nil), ups...)
		i := int(plan.Salt % uint64(len(payload)))
		payload[i].v = -payload[i].v
	}
	delayed = delivered && plan.Delay
	return delivered, delayed, attempts, plan, payload
}

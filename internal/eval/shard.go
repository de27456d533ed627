// Shard-parallel semi-naive delta rounds. The delta instance is
// hash-partitioned across N workers (tuple.Instance.Partition); each
// worker evaluates every delta-variant rule against a copy-on-write
// snapshot of the current instance and its private slice of the
// delta, so lazy index builds land in the snapshot's private overlay
// instead of racing on shared storage. Each worker stages the head
// facts its snapshot does not hold into a private instance and ships
// it through a bounded channel to the caller's goroutine once it
// holds shardBatch facts, where the merge barrier dedupes it into the
// instance and the next delta — insertion overlaps enumeration, and
// because relations are sets the merged result is independent of
// arrival order: byte-identical to the serial round.
package eval

import (
	"sync"
	"time"

	"unchained/internal/tuple"
	"unchained/internal/value"
)

// DeltaVariant pairs a delta-compiled rule (CompileDelta) with the
// positive body literal it pins to the delta relation.
type DeltaVariant struct {
	Rule *Rule
	Lit  int
}

// shardBatch is the number of facts a worker stages before shipping
// its staging instance to the merge barrier.
const shardBatch = 4096

// cancelPollMask throttles the workers' cancellation poll to one
// non-blocking channel check per 256 firings.
const cancelPollMask = 255

// RunSharded evaluates every delta variant over a tuple-hash
// partition of delta across `shards` workers and calls sink — on the
// calling goroutine — with staged instances of new head facts (facts
// absent from the instance when the round began) and the number of
// head facts emitted while staging each (duplicates and
// re-derivations included). base supplies the shared read-only
// environment (In, NegIn, Adom, Scan, Stats, NoPlan, Plans); every
// worker receives private snapshots of In and NegIn. mergeBuf is the
// batch-channel capacity (minimum 1). done, when non-nil, aborts the
// round early: workers notice within cancelPollMask firings, ship
// what they have, and exit — RunSharded always drains every batch and
// joins every worker before returning, so no goroutine outlives the
// call. The caller classifies emitted facts at the merge (derived =
// facts the merge finds new, re-derived = emitted − derived), so the
// stats collector (base.Stats, concurrency-safe counters) sees the
// same totals as a serial round; each worker also attributes its
// round wall time and emitted-fact count to its shard index via
// Collector.ShardWork, feeding the per-shard skew breakdown of stats
// summaries and flight records.
//
// The caller must not mutate delta during the call; mutating the
// instance behind base.In is safe (workers read their own forks).
func RunSharded(variants []DeltaVariant, base *Ctx, delta *tuple.Instance, shards, mergeBuf int, done <-chan struct{}, sink func(staged *tuple.Instance, emitted int)) {
	if shards < 1 {
		shards = 1
	}
	if mergeBuf < 1 {
		mergeBuf = 1
	}
	parts := delta.Partition(shards)

	// Snapshot the shared instances once per shard on this goroutine:
	// Snapshot folds private index overlays into the shared payload,
	// which must not race with worker probes.
	ins := make([]*tuple.Instance, shards)
	negs := make([]*tuple.Instance, shards)
	for s := 0; s < shards; s++ {
		ins[s] = base.In.Snapshot()
		if base.NegIn != nil {
			negs[s] = base.NegIn.Snapshot()
		}
	}

	type batch struct {
		staged  *tuple.Instance
		emitted int
	}
	ch := make(chan batch, mergeBuf)
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			ctx := &Ctx{
				In: ins[s], NegIn: negs[s], Adom: base.Adom,
				Delta: parts[s], Scan: base.Scan, Stats: base.Stats,
				NoPlan: base.NoPlan, Plans: base.Plans,
			}
			col := base.Stats
			staged := tuple.NewInstance()
			var head []value.Value
			nStaged, nEmitted := 0, 0
			fired := 0
			aborted := false
			emitted := uint64(0)
			var begin time.Time
			if col.Enabled() {
				begin = time.Now()
			}
			for _, v := range variants {
				if aborted {
					break
				}
				ctx.DeltaLit = v.Lit
				rule := v.Rule
				// Firings tally locally, flushed in one FiredBatch
				// below: per-binding atomic adds on the shared
				// collector contend badly across shard workers. The
				// derived/rederived split is not charged here at all
				// — the merge barrier's Insert already probes every
				// staged fact, so the caller's sink charges those
				// counters for free (see semiNaive).
				var firings uint64
				rule.Enumerate(ctx, func(b Binding) bool {
					var derived, reder int
					derived, reder, head = rule.StageNew(b, ctx.In, staged, head)
					firings++
					nStaged += derived
					nEmitted += derived + reder
					emitted += uint64(derived + reder)
					if nStaged >= shardBatch {
						ch <- batch{staged, nEmitted}
						staged = tuple.NewInstance()
						nStaged, nEmitted = 0, 0
					}
					fired++
					if done != nil && fired&cancelPollMask == 0 {
						select {
						case <-done:
							aborted = true
							return false
						default:
						}
					}
					return true
				})
				col.FiredBatch(-1, firings, 0, 0)
			}
			if nEmitted > 0 {
				ch <- batch{staged, nEmitted}
			}
			if col.Enabled() {
				col.ShardWork(s, time.Since(begin).Nanoseconds(), emitted)
			}
		}(s)
	}
	go func() {
		wg.Wait()
		close(ch)
	}()
	for bt := range ch {
		sink(bt.staged, bt.emitted)
	}
}

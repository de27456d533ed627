// Copy-on-write relation storage. A Relation's rows and its
// secondary indexes live in a relData (arena.go) that snapshots share
// by pointer: Instance.Snapshot (and Clone) hands every child the same
// relData and marks both sides shared. The first mutation after a
// snapshot promotes the writer onto a private copy (a fresh
// generation) — a memmove of the flat arrays — carrying the warm
// indexes across so the fork does not re-pay index construction for
// data it did not change.
//
// Concurrency contract: taking snapshots of the same Relation or
// Instance from multiple goroutines is safe, and so is reading
// (Probe/Contains/Each) concurrently with snapshots as long as nobody
// mutates. Mutation (Insert/Delete) requires exclusive access to that
// Relation, exactly as before the COW rewrite.
package tuple

import (
	"slices"
	"sync/atomic"
)

// Counters tallies copy-on-write traffic. All methods are safe on a
// nil receiver and safe for concurrent use, so engines can hang one
// collector-owned Counters off every instance they touch.
type Counters struct {
	snapshots      atomic.Uint64
	promotions     atomic.Uint64
	tuplesCopied   atomic.Uint64
	indexesCarried atomic.Uint64
}

// CounterStats is a plain-value reading of a Counters.
type CounterStats struct {
	// Snapshots counts Instance.Snapshot/Clone calls (O(#relations)
	// pointer copies).
	Snapshots uint64 `json:"cow_snapshots"`
	// Promotions counts relations copied onto a private generation by
	// the first write after a snapshot.
	Promotions uint64 `json:"cow_promotions"`
	// TuplesCopied counts arena rows physically copied by promotions
	// (the work a deep clone would have done eagerly for every
	// relation), tombstoned rows not yet compacted included.
	TuplesCopied uint64 `json:"cow_tuples_copied"`
	// IndexesCarried counts warm posting-list indexes carried across
	// promotions instead of being rebuilt from scratch.
	IndexesCarried uint64 `json:"cow_indexes_carried"`
}

func (c *Counters) addSnapshot() {
	if c != nil {
		c.snapshots.Add(1)
	}
}

func (c *Counters) addPromotion(tuples, indexes int) {
	if c != nil {
		c.promotions.Add(1)
		c.tuplesCopied.Add(uint64(tuples))
		c.indexesCarried.Add(uint64(indexes))
	}
}

// Load returns the current counter values.
func (c *Counters) Load() CounterStats {
	if c == nil {
		return CounterStats{}
	}
	return CounterStats{
		Snapshots:      c.snapshots.Load(),
		Promotions:     c.promotions.Load(),
		TuplesCopied:   c.tuplesCopied.Load(),
		IndexesCarried: c.indexesCarried.Load(),
	}
}

// Reset zeroes all counters.
func (c *Counters) Reset() {
	if c == nil {
		return
	}
	c.snapshots.Store(0)
	c.promotions.Store(0)
	c.tuplesCopied.Store(0)
	c.indexesCarried.Store(0)
}

// Generation returns the relation's data generation stamp. Snapshots
// share their parent's generation; a promote moves the writer to a
// fresh one.
func (r *Relation) Generation() uint64 { return r.data.gen }

// Shared reports whether the relation's storage is (potentially)
// shared with a snapshot, i.e. whether the next write will promote.
func (r *Relation) Shared() bool { return r.shared.Load() }

// Snapshot returns a relation sharing r's storage. Both r and the
// snapshot become copy-on-write: whichever side mutates first pays
// for its own private copy. Indexes r built privately while itself
// shared are folded into the common storage first, so the snapshot
// starts with every index r has warm.
func (r *Relation) Snapshot() *Relation {
	if len(r.own) > 0 {
		// Fold the private overlay indexes into a fresh frozen relData
		// (same generation and arrays: the tuple set is unchanged).
		// The old relData stays untouched for any siblings still
		// holding it.
		d := *r.data
		d.indexes = slices.Concat(r.data.indexes, r.own)
		r.data = &d
		r.own = nil
	}
	r.shared.Store(true)
	c := &Relation{arity: r.arity, data: r.data, cow: r.cow}
	c.shared.Store(true)
	return c
}

// promote gives r a private copy of its shared storage; it must be
// called before any in-place mutation while r is shared. The flat
// arrays are copied wholesale, and every warm index is carried across
// with its buckets capacity-trimmed, so a later append reallocates
// instead of clobbering a sibling's backing array.
func (r *Relation) promote() {
	if !r.shared.Load() {
		return
	}
	d := r.data
	nd := d.copied()
	carried := len(d.indexes) + len(r.own)
	if carried > 0 {
		nd.indexes = make([]index, 0, carried)
		for _, ix := range slices.Concat(d.indexes, r.own) {
			lists := make(postings, len(ix.lists))
			for k, b := range ix.lists {
				b.rows = b.rows[:len(b.rows):len(b.rows)]
				lists[k] = b
			}
			nd.indexes = append(nd.indexes, index{ix.mask, lists})
		}
	}
	r.data = nd
	r.own = nil
	r.shared.Store(false)
	r.cow.addPromotion(d.rows(), carried)
}

// DeepClone returns an eager deep copy of the relation: fresh arrays
// holding only the live rows, no indexes, no sharing. It reproduces
// the pre-COW Clone and exists for the fork benchmarks that quantify
// the COW win.
func (r *Relation) DeepClone() *Relation {
	return &Relation{arity: r.arity, data: r.data.compacted(), cow: r.cow}
}

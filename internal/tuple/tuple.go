// Package tuple implements the relational substrate of the paper
// (Section 2): constant tuples, relation instances (finite sets of
// constant tuples of a fixed arity), and database instances (a finite
// map from relation names to relation instances).
//
// A relation stores its tuples as rows of a flat, append-only value
// arena with an open-addressing set table over seeded row hashes, and
// answers partially bound probes from int32 posting-list indexes
// built on demand by the rule matcher (arena.go). Instances carry a
// schema (relation name -> arity) and support the cloning, equality,
// and fingerprinting operations the forward-chaining engines need for
// stage iteration and cycle detection (Section 4.2).
//
// Cloning is copy-on-write (cow.go): Instance.Snapshot and Clone are
// O(#relations) structural shares, and a relation's storage is only
// copied — a memmove of its flat arrays — when one side of a fork
// first writes to it.
package tuple

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"unchained/internal/value"
)

// Tuple is a constant tuple: a sequence of interned domain values.
type Tuple []value.Value

// Key packs t into a compact string usable as a map key. Two tuples
// of the same arity have equal keys iff they are equal. Relations do
// not use it (they hash rows in place); it serves callers that key
// their own maps by tuple.
func (t Tuple) Key() string {
	var b strings.Builder
	b.Grow(4 * len(t))
	for _, v := range t {
		b.WriteByte(byte(v))
		b.WriteByte(byte(v >> 8))
		b.WriteByte(byte(v >> 16))
		b.WriteByte(byte(v >> 24))
	}
	return b.String()
}

// Clone returns a copy of t.
func (t Tuple) Clone() Tuple {
	c := make(Tuple, len(t))
	copy(c, t)
	return c
}

// Equal reports whether t and o are identical tuples.
func (t Tuple) Equal(o Tuple) bool {
	if len(t) != len(o) {
		return false
	}
	for i, v := range t {
		if v != o[i] {
			return false
		}
	}
	return true
}

// String renders t using the universe's display names.
func (t Tuple) String(u *value.Universe) string {
	parts := make([]string, len(t))
	for i, v := range t {
		parts[i] = u.Name(v)
	}
	return "(" + strings.Join(parts, ",") + ")"
}

// Relation is a finite set of constant tuples of a fixed arity.
// The zero Relation is not ready; use NewRelation.
//
// Storage is an append-only row arena (arena.go) behind a
// copy-on-write handle (cow.go): data points at a possibly shared
// relData holding the rows, the set table and the lazily built
// posting-list indexes (column-set bitmask -> key -> row ids). While
// shared, mutations first promote onto a private generation, and
// freshly built indexes go into the private own overlay instead of
// the frozen shared map.
type Relation struct {
	arity int
	data  *relData
	// own holds indexes built while data was shared; the frozen base
	// cannot accept new masks without racing sibling readers.
	own []index
	// shared marks the storage as reachable from a snapshot. It is
	// atomic so concurrent Snapshot calls on the same relation are
	// race-free.
	shared atomic.Bool
	// cow, when set, tallies snapshot/promote traffic (see Counters).
	cow *Counters
}

// NewRelation returns an empty relation of the given arity.
func NewRelation(arity int) *Relation {
	return &Relation{arity: arity, data: newRelData(arity)}
}

// Arity reports the relation's arity.
func (r *Relation) Arity() int { return r.arity }

// Len reports the number of tuples.
func (r *Relation) Len() int { return r.data.live() }

// Empty reports whether the relation has no tuples.
func (r *Relation) Empty() bool { return r.data.live() == 0 }

// Insert adds t to the relation, reporting whether it was new. The
// relation stores a copy of t's values. Insert panics if the arity
// does not match: arities are schema-level invariants and a mismatch
// is a programming error.
func (r *Relation) Insert(t Tuple) bool {
	if len(t) != r.arity {
		panic(fmt.Sprintf("tuple: insert arity %d into relation of arity %d", len(t), r.arity))
	}
	return r.insertHashed(t, hashVals(t))
}

// insertHashed is Insert for a tuple of the right arity whose row
// hash h is already known.
func (r *Relation) insertHashed(t Tuple, h uint64) bool {
	row, slot := r.data.find(t, h)
	if row >= 0 {
		return false
	}
	r.promote()
	r.data.add(t, h, slot)
	return true
}

// Delete removes t, reporting whether it was present. The row is
// tombstoned in place; once dead rows outnumber live ones the
// relation compacts into fresh arrays and drops its indexes.
func (r *Relation) Delete(t Tuple) bool {
	if len(t) != r.arity {
		return false
	}
	row, _ := r.data.find(t, hashVals(t))
	if row < 0 {
		return false
	}
	r.promote()
	d := r.data
	d.kill(row)
	if d.ndead > d.live() {
		r.data = d.compacted()
	}
	return true
}

// Contains reports whether t is in the relation.
func (r *Relation) Contains(t Tuple) bool {
	if len(t) != r.arity {
		return false
	}
	row, _ := r.data.find(t, hashVals(t))
	return row >= 0
}

// Each calls fn for every tuple in insertion order; fn must not
// mutate the relation. If fn returns false, iteration stops.
func (r *Relation) Each(fn func(Tuple) bool) {
	d := r.data
	for row, n := 0, d.rows(); row < n; row++ {
		if !d.isDead(row) && !fn(d.row(row)) {
			return
		}
	}
}

// Tuples returns all tuples in insertion order. The returned slice
// is fresh but the tuples are shared; callers must not mutate them.
func (r *Relation) Tuples() []Tuple {
	out := make([]Tuple, 0, r.Len())
	r.Each(func(t Tuple) bool {
		out = append(out, t)
		return true
	})
	return out
}

// SortedTuples returns all tuples ordered by u.Compare column by
// column, for deterministic output.
func (r *Relation) SortedTuples(u *value.Universe) []Tuple {
	out := r.Tuples()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		for k := range a {
			if c := u.Compare(a[k], b[k]); c != 0 {
				return c < 0
			}
		}
		return false
	})
	return out
}

// Clone returns a copy of the relation with value semantics. Since
// the COW rewrite it is an alias for Snapshot: an O(1) structural
// share whose first mutation (on either side) promotes onto a private
// copy. Use DeepClone for an eager copy.
func (r *Relation) Clone() *Relation { return r.Snapshot() }

// Equal reports whether r and o hold exactly the same tuples.
// Relations sharing the same storage generation (e.g. a snapshot and
// its untouched parent) compare in O(1), and so do most unequal ones
// (their sizes or hash sums differ).
func (r *Relation) Equal(o *Relation) bool {
	if r.arity != o.arity {
		return false
	}
	a, b := r.data, o.data
	if a == b {
		return true
	}
	if a.live() != b.live() || a.fp != b.fp {
		return false
	}
	for row, h := range a.hash {
		if a.isDead(row) {
			continue
		}
		if hit, _ := b.find(a.row(row), h); hit < 0 {
			return false
		}
	}
	return true
}

// UnionInPlace inserts every tuple of o into r, reporting how many
// were new.
func (r *Relation) UnionInPlace(o *Relation) int {
	if r.arity != o.arity && !o.Empty() {
		panic(fmt.Sprintf("tuple: insert arity %d into relation of arity %d", o.arity, r.arity))
	}
	added := 0
	src := o.data
	for row, h := range src.hash {
		if !src.isDead(row) && r.insertHashed(src.row(row), h) {
			added++
		}
	}
	return added
}

// Fingerprint returns an order-independent 64-bit hash of the tuple
// set (XOR of the seeded per-row hashes, maintained incrementally),
// used by the Datalog¬¬ and nondeterministic engines to detect
// revisited instance states.
func (r *Relation) Fingerprint() uint64 {
	d := r.data
	// Mix in arity and cardinality so that, e.g., the empty relations
	// of different arities differ only via the instance-level mix.
	return d.fp ^ (uint64(d.live())*0x9e3779b97f4a7c15 + uint64(r.arity))
}

// fullMask reports whether mask binds every column, making a probe a
// direct set lookup that needs no index.
func (r *Relation) fullMask(mask uint32) bool {
	return r.arity <= 32 && mask == uint32(1)<<uint(r.arity)-1
}

// index returns (building if needed) the posting lists for the given
// column set. mask bit i set means column i participates in the key.
// While the storage is shared, snapshots reuse the warm indexes baked
// into it, and new masks are built into the private own overlay (the
// frozen base is read-only); a sole owner extends the base in place.
func (r *Relation) index(mask uint32) postings {
	if idx := findIndex(r.data.indexes, mask); idx != nil {
		return idx
	}
	if idx := findIndex(r.own, mask); idx != nil {
		return idx
	}
	idx := r.data.buildIndex(mask)
	if r.shared.Load() {
		r.own = append(r.own, index{mask, idx})
	} else {
		r.data.indexes = append(r.data.indexes, index{mask, idx})
	}
	return idx
}

// Probe returns the tuples whose values at the masked columns equal
// the corresponding entries of pattern (entries at unmasked columns
// are ignored): the collected form of ProbeIter. With a zero mask it
// returns all tuples; with every column masked it is a direct set
// lookup; otherwise it reads a lazily built, incrementally maintained
// posting-list index.
func (r *Relation) Probe(mask uint32, pattern Tuple) []Tuple {
	var it Iterator
	r.ProbeIter(mask, pattern, &it)
	return it.collect()
}

// ProbeScan is the index-free variant of Probe used by the ablation
// benchmarks: it scans all tuples and filters.
func (r *Relation) ProbeScan(mask uint32, pattern Tuple) []Tuple {
	var it Iterator
	r.ScanIter(mask, pattern, &it)
	return it.collect()
}

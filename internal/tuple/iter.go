// Streaming probe iterators. Iterator is the pull-based counterpart
// of Relation.Probe/ProbeScan: a probe positions a caller-owned cursor
// over the matching tuples instead of materializing a fresh result
// slice, so a per-step candidate allocation disappears from the rule
// matcher's hot loop and an early exit (a satisfied existential, a
// canceled enumeration) stops pulling immediately.
//
// An Iterator captures its source once, at reset time: the arena, the
// tombstone bitset and either a row range (a full scan or a
// fully-bound hit) or a posting-list bucket, all by slice header.
// Rows are append-only and never rewritten; later inserts append
// beyond the captured lengths, deletes only set tombstone bits (which
// the cursor may or may not observe), and compaction and promotion
// move the relation onto fresh arrays. So the cursor stays
// memory-safe — yielding a subset of the tuples present when it was
// taken at worst — under the "engines may mutate between probes"
// contract the slice-returning Probe always had.
package tuple

import "unchained/internal/value"

// Iterator is a cursor over the results of one relation probe. The
// zero value is an exhausted iterator; ProbeIter/ScanIter reset it.
// An Iterator is single-goroutine and may be reused across probes.
type Iterator struct {
	vals  []value.Value
	dead  []uint64
	arity int
	// rows holds a bucket's row ids; nil walks row ids i..n-1 directly.
	rows []int32
	i, n int
	// filter re-checks the masked columns against pattern: scan mode,
	// and buckets of hashed (lossy) index keys.
	filter  bool
	mask    uint32
	pattern Tuple
}

// Next returns the next matching tuple, or ok=false when the probe is
// exhausted. The returned tuple is a capacity-trimmed view of shared
// storage; callers must not mutate it.
func (it *Iterator) Next() (t Tuple, ok bool) {
	a, rows, dead := it.arity, it.rows, it.dead
	for i := it.i; i < it.n; {
		row := i
		if rows != nil {
			row = int(rows[i])
		}
		i++
		if dead != nil && dead[row>>6]&(1<<(uint(row)&63)) != 0 {
			continue
		}
		o := row * a
		t := Tuple(it.vals[o : o+a : o+a])
		if it.filter && !maskEq(t, it.mask, it.pattern) {
			continue
		}
		it.i = i
		return t, true
	}
	it.i = it.n
	return nil, false
}

// collect drains the iterator into a fresh slice (nil when empty).
// Unfiltered cursors know their candidate count up front.
func (it *Iterator) collect() []Tuple {
	var out []Tuple
	if !it.filter && it.n > it.i {
		out = make([]Tuple, 0, it.n-it.i)
	}
	for {
		t, ok := it.Next()
		if !ok {
			if len(out) == 0 {
				return nil
			}
			return out
		}
		out = append(out, t)
	}
}

// maskEq reports whether t agrees with pattern on every masked column.
func maskEq(t Tuple, mask uint32, pattern Tuple) bool {
	for pos := range t {
		if mask&(1<<uint(pos)) != 0 && t[pos] != pattern[pos] {
			return false
		}
	}
	return true
}

// reset points it at d's arrays with an empty range. Without dead
// rows the cursor skips tombstone checks altogether: rows deleted
// later may then still be yielded, which the cursor contract allows.
func (it *Iterator) reset(d *relData) {
	*it = Iterator{vals: d.vals, arity: d.arity}
	if d.ndead > 0 {
		it.dead = d.dead
	}
}

// ProbeIter resets it to cursor over the tuples whose values at the
// masked columns equal the corresponding entries of pattern (the
// iterator form of Probe). A zero mask walks the arena directly; a
// fully-bound mask is a direct set lookup; anything else is a cursor
// over one posting-list bucket, with hashed keys re-checked.
func (r *Relation) ProbeIter(mask uint32, pattern Tuple, it *Iterator) {
	d := r.data
	it.reset(d)
	switch {
	case mask == 0:
		it.n = d.rows()
	case r.fullMask(mask):
		if row, _ := d.find(pattern, hashVals(pattern)); row >= 0 {
			it.i, it.n = row, row+1
		}
	default:
		it.rows = r.index(mask)[indexKey(pattern, mask)].rows
		it.n = len(it.rows)
		if lossyMask(mask) {
			it.filter, it.mask, it.pattern = true, mask, pattern
		}
	}
}

// ScanIter is the index-free variant of ProbeIter used by the
// ablation benchmarks: it walks every row and filters on the mask,
// building no indexes — so warmed-instance parallel stages stay
// read-only in scan mode too.
func (r *Relation) ScanIter(mask uint32, pattern Tuple, it *Iterator) {
	d := r.data
	it.reset(d)
	it.n = d.rows()
	if mask != 0 {
		it.filter, it.mask, it.pattern = true, mask, pattern
	}
}

// BuildIndex materializes the posting lists for the given column mask
// so that later probes of it are read-only on the relation (see
// eval.WarmIndexes). Full scans and fully-bound masks need no index
// and are no-ops.
func (r *Relation) BuildIndex(mask uint32) {
	if mask != 0 && !r.fullMask(mask) {
		r.index(mask)
	}
}

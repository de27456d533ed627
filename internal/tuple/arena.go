// Arena storage for one generation of a relation. Tuples live as rows
// of an arity-strided value arena; set membership goes through an
// open-addressing table of row ids keyed by a seeded per-row hash, and
// secondary indexes are int32 posting lists. Nothing here builds a
// string or allocates per stored tuple.
//
// Rows are append-only: a stored row is never rewritten, moved or
// reused while its arena is reachable. Delete only sets the row's
// tombstone bit; once dead rows outnumber live ones the relation
// compacts into fresh arrays. Tuples handed out by Each, Probe and
// iterators are capacity-trimmed views into the arena, so a caller
// that keeps one keeps a valid, immutable tuple.
package tuple

import (
	"hash/maphash"
	"math/bits"
	"unsafe"

	"unchained/internal/value"
)

// relData is the structurally shared payload of a Relation: one
// generation of the tuple set plus the posting-list indexes built over
// it. Once a relData is reachable from more than one Relation it is
// frozen — only a sole owner appends rows, sets tombstones or adds
// indexes in place.
type relData struct {
	// gen stamps the generation: promote() bumps it on the private
	// copy, so two relations with the same data pointer (and hence
	// equal gen) are known-identical without comparing tuples.
	gen   uint64
	arity int
	// vals is the row arena: row i is vals[i*arity:(i+1)*arity].
	vals []value.Value
	// hash holds each row's seeded hash (see hashVals); its length is
	// the row count, live and dead.
	hash []uint64
	// dead is the tombstone bitset over rows; ndead counts set bits.
	dead  []uint64
	ndead int
	// slots is the open-addressing set table (linear probing, power of
	// two size): row+1 per occupied slot, 0 for empty. Slots of dead
	// rows stay occupied until the next grow or compaction.
	slots []int32
	used  int
	// fp is the XOR of the live rows' hashes (the order-independent
	// part of Fingerprint), maintained on every insert and delete.
	fp uint64
	// indexes holds the posting lists built so far, one per column
	// mask (see indexKey); a relation rarely has more than a few.
	indexes []index
}

// index is the posting lists of one column mask.
type index struct {
	mask  uint32
	lists postings
}

// findIndex returns the posting lists for mask in idxs, or nil.
func findIndex(idxs []index, mask uint32) postings {
	for _, ix := range idxs {
		if ix.mask == mask {
			return ix.lists
		}
	}
	return nil
}

// postings is a secondary index: bucket key -> the rows with that key.
type postings map[uint64]bucket

// bucket is one posting list: row ids in insertion order. Delete
// leaves a dead row's id in place and counts it; once dead ids are
// the majority the list is rebuilt fresh, so a key that churns does
// not drag an ever longer tail of tombstones. Readers skip dead ids.
type bucket struct {
	rows []int32
	dead int
}

// add appends row to the bucket of key k.
func (p postings) add(k uint64, row int) {
	b := p[k]
	b.rows = append(b.rows, int32(row))
	p[k] = b
}

func newRelData(arity int) *relData {
	// A non-nil empty arena keeps arity-0 row views non-nil.
	return &relData{arity: arity, vals: []value.Value{}}
}

// hashSeed is the process-wide seed of the row hash. The slot table
// probes on it, so a per-process seed keeps adversarial inputs from
// steering rows into one probe chain; all fingerprints of one process
// are comparable with each other.
var hashSeed = maphash.MakeSeed()

// hashVals returns the seeded hash of a value sequence.
func hashVals(vs []value.Value) uint64 {
	if len(vs) == 0 {
		return maphash.Bytes(hashSeed, nil)
	}
	b := unsafe.Slice((*byte)(unsafe.Pointer(&vs[0])), len(vs)*4)
	return maphash.Bytes(hashSeed, b)
}

// lossyMask reports whether index keys over mask are hashes (more
// than two key columns) rather than exact packings, so bucket readers
// must re-check the key columns.
func lossyMask(mask uint32) bool { return bits.OnesCount32(mask) > 2 }

// indexKey maps the values of t at the masked columns to a posting
// list key. One or two columns pack exactly into the 64 bits; wider
// keys take the seeded hash of the gathered values.
func indexKey(t Tuple, mask uint32) uint64 {
	if lossyMask(mask) {
		var buf [32]value.Value
		k := buf[:0]
		for i, v := range t {
			if mask&(1<<uint(i)) != 0 {
				k = append(k, v)
			}
		}
		return hashVals(k)
	}
	var k uint64
	for i, v := range t {
		if mask&(1<<uint(i)) != 0 {
			k = k<<32 | uint64(v)
		}
	}
	return k
}

// rows reports the row count, tombstoned rows included.
func (d *relData) rows() int { return len(d.hash) }

// live reports the number of live rows.
func (d *relData) live() int { return len(d.hash) - d.ndead }

func (d *relData) isDead(row int) bool { return d.dead[row>>6]&(1<<(uint(row)&63)) != 0 }

// row returns a capacity-trimmed view of row i.
func (d *relData) row(i int) Tuple {
	o := i * d.arity
	return Tuple(d.vals[o : o+d.arity : o+d.arity])
}

// find returns the live row equal to t (whose hash is h), or -1 and
// the slot an insert of t should take: the first slot on t's probe
// chain that is empty or holds a dead row (-1 before the table
// exists).
func (d *relData) find(t Tuple, h uint64) (row, slot int) {
	if len(d.slots) == 0 {
		return -1, -1
	}
	slot = -1
	m := uint64(len(d.slots) - 1)
	for i := h & m; ; i = (i + 1) & m {
		s := d.slots[i]
		if s == 0 {
			if slot < 0 {
				slot = int(i)
			}
			return -1, slot
		}
		row := int(s - 1)
		if d.hash[row] == h && !d.isDead(row) && d.row(row).Equal(t) {
			return row, -1
		}
		if slot < 0 && d.ndead > 0 && d.isDead(row) {
			slot = int(i)
		}
	}
}

// add appends t (hash h, known absent) as a new live row in the slot
// find offered, and indexes it. Only called by a sole owner.
func (d *relData) add(t Tuple, h uint64, slot int) {
	row := len(d.hash)
	if slot < 0 || d.slots[slot] == 0 {
		if (d.used+1)*4 > len(d.slots)*3 {
			d.rehash(d.live() + 1)
			slot = d.free(h)
		}
		d.used++
	}
	d.slots[slot] = int32(row + 1)
	d.vals = append(d.vals, t...)
	d.hash = append(d.hash, h)
	if row&63 == 0 {
		d.dead = append(d.dead, 0)
	}
	d.fp ^= h
	for _, ix := range d.indexes {
		ix.lists.add(indexKey(t, ix.mask), row)
	}
}

// free returns the first empty slot on the probe chain of hash h.
func (d *relData) free(h uint64) int {
	m := uint64(len(d.slots) - 1)
	i := h & m
	for d.slots[i] != 0 {
		i = (i + 1) & m
	}
	return int(i)
}

// rehash rebuilds the slot table over the live rows, sized so that
// need live rows fill at most 3/8 of it (the next grow is a doubling
// away). Slots of dead rows are dropped.
func (d *relData) rehash(need int) {
	n := 8
	for n*3 < need*8 {
		n *= 2
	}
	d.slots = make([]int32, n)
	d.used = 0
	for row, h := range d.hash {
		if !d.isDead(row) {
			d.slots[d.free(h)] = int32(row + 1)
			d.used++
		}
	}
}

// kill tombstones a live row and counts it in every posting list
// holding it. Only called by a sole owner.
func (d *relData) kill(row int) {
	d.dead[row>>6] |= 1 << (uint(row) & 63)
	d.ndead++
	d.fp ^= d.hash[row]
	for _, ix := range d.indexes {
		k := indexKey(d.row(row), ix.mask)
		b := ix.lists[k]
		if b.dead++; 2*b.dead > len(b.rows) {
			// A fresh slice: cursors holding the old one stay valid.
			live := make([]int32, 0, len(b.rows)-b.dead)
			for _, id := range b.rows {
				if !d.isDead(int(id)) {
					live = append(live, id)
				}
			}
			b = bucket{rows: live}
		}
		if len(b.rows) == 0 {
			delete(ix.lists, k)
		} else {
			ix.lists[k] = b
		}
	}
}

// copied returns a private copy of the arrays at the next generation,
// with headroom so the copy's first append does not reallocate.
// Indexes are not carried (promote does that).
func (d *relData) copied() *relData {
	return &relData{
		gen:   d.gen + 1,
		arity: d.arity,
		vals:  grown(d.vals, d.arity*(1+len(d.hash)/4)),
		hash:  grown(d.hash, 1+len(d.hash)/4),
		dead:  grown(d.dead, 1+len(d.dead)/4),
		ndead: d.ndead,
		slots: grown(d.slots, 0),
		used:  d.used,
		fp:    d.fp,
	}
}

// grown returns a copy of s with room for extra more elements.
func grown[T any](s []T, extra int) []T {
	c := make([]T, len(s), len(s)+extra)
	copy(c, s)
	return c
}

// compacted returns a copy holding only the live rows, at the same
// generation (the tuple set is unchanged) and without indexes: row
// ids change, so they are rebuilt lazily by the next probe.
func (d *relData) compacted() *relData {
	n := d.live()
	c := &relData{
		gen:   d.gen,
		arity: d.arity,
		vals:  make([]value.Value, 0, n*d.arity),
		hash:  make([]uint64, 0, n),
		dead:  make([]uint64, (n+63)/64),
		fp:    d.fp,
	}
	for row, h := range d.hash {
		if !d.isDead(row) {
			c.vals = append(c.vals, d.row(row)...)
			c.hash = append(c.hash, h)
		}
	}
	c.rehash(n)
	return c
}

// buildIndex returns fresh posting lists for mask over the live rows.
func (d *relData) buildIndex(mask uint32) postings {
	idx := make(postings)
	for row := range d.hash {
		if !d.isDead(row) {
			idx.add(indexKey(d.row(row), mask), row)
		}
	}
	return idx
}

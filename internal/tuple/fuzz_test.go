package tuple

import (
	"fmt"
	"math/rand"
	"testing"

	"unchained/internal/value"
)

// relModel is the reference a Relation is checked against: a plain
// map keyed by Tuple.Key.
type relModel map[string]Tuple

func (m relModel) clone() relModel {
	c := make(relModel, len(m))
	for k, t := range m {
		c[k] = t
	}
	return c
}

func (m relModel) equal(o relModel) bool {
	if len(m) != len(o) {
		return false
	}
	for k := range m {
		if _, ok := o[k]; !ok {
			return false
		}
	}
	return true
}

// relHandle pairs a relation under test with its model.
type relHandle struct {
	r *Relation
	m relModel
}

// openCursor is an iterator taken at some point of the run, with the
// set of tuples present when it was taken.
type openCursor struct {
	it   Iterator
	seen relModel
}

// keptTuple is a tuple handed out by the relation and retained by the
// caller, with a private copy of the values it had then.
type keptTuple struct {
	t, want Tuple
}

// relOps decodes a byte string into a sequence of relation
// operations and checks each against the model.
type relOps struct {
	t       testing.TB
	data    []byte
	arity   int
	handles []*relHandle
	cursors []*openCursor
	kept    []keptTuple
}

func (d *relOps) byte() byte {
	if len(d.data) == 0 {
		return 0
	}
	b := d.data[0]
	d.data = d.data[1:]
	return b
}

// tuple decodes a tuple over the domain {1,..,4}: small enough that
// inserts collide, probes hit and deletes find their target.
func (d *relOps) tuple() Tuple {
	t := make(Tuple, d.arity)
	for i := range t {
		t[i] = value.Value(d.byte()%4 + 1)
	}
	return t
}

func (d *relOps) handle() *relHandle { return d.handles[int(d.byte())%len(d.handles)] }

func (d *relOps) mask() uint32 { return uint32(d.byte()) % (1 << uint(d.arity)) }

// allTuples enumerates the whole domain^arity.
func (d *relOps) allTuples() []Tuple {
	out := []Tuple{{}}
	for i := 0; i < d.arity; i++ {
		var next []Tuple
		for _, p := range out {
			for v := value.Value(1); v <= 4; v++ {
				next = append(next, append(p.Clone(), v))
			}
		}
		out = next
	}
	return out
}

// matches returns the model tuples agreeing with pattern on mask.
func matches(m relModel, mask uint32, pattern Tuple) relModel {
	out := relModel{}
	for k, t := range m {
		if maskEq(t, mask, pattern) {
			out[k] = t
		}
	}
	return out
}

// checkSet verifies that got holds exactly the tuples of want, once
// each, and retains them for the end-of-run immutability check.
func (d *relOps) checkSet(what string, got []Tuple, want relModel) {
	d.t.Helper()
	seen := map[string]bool{}
	for _, t := range got {
		if len(t) != d.arity {
			d.t.Fatalf("%s: tuple %v has arity %d, want %d", what, t, len(t), d.arity)
		}
		k := t.Key()
		if seen[k] {
			d.t.Fatalf("%s: tuple %v yielded twice", what, t)
		}
		seen[k] = true
		if _, ok := want[k]; !ok {
			d.t.Fatalf("%s: unexpected tuple %v", what, t)
		}
		if len(d.kept) < 256 {
			d.kept = append(d.kept, keptTuple{t, t.Clone()})
		}
	}
	if len(seen) != len(want) {
		d.t.Fatalf("%s: got %d tuples, want %d", what, len(seen), len(want))
	}
}

func drain(it *Iterator) []Tuple {
	var out []Tuple
	for {
		t, ok := it.Next()
		if !ok {
			return out
		}
		out = append(out, t)
	}
}

func (d *relOps) run() {
	for len(d.data) > 0 {
		op := d.byte() % 13
		h := d.handle()
		switch op {
		case 0, 1: // Insert
			t := d.tuple()
			_, had := h.m[t.Key()]
			if got := h.r.Insert(t); got == had {
				d.t.Fatalf("Insert(%v) = %v, model had it: %v", t, got, had)
			}
			h.m[t.Key()] = t.Clone()
			if len(t) > 0 {
				t[0] = 0 // the caller reuses its buffer
			}
		case 2: // Delete
			t := d.tuple()
			_, had := h.m[t.Key()]
			if got := h.r.Delete(t); got != had {
				d.t.Fatalf("Delete(%v) = %v, model had it: %v", t, got, had)
			}
			delete(h.m, t.Key())
		case 3: // Contains
			t := d.tuple()
			_, had := h.m[t.Key()]
			if got := h.r.Contains(t); got != had {
				d.t.Fatalf("Contains(%v) = %v, want %v", t, got, had)
			}
		case 4: // ProbeIter and ScanIter over every mask
			pattern := d.tuple()
			for mask := uint32(0); mask < 1<<uint(d.arity); mask++ {
				want := matches(h.m, mask, pattern)
				var it Iterator
				h.r.ProbeIter(mask, pattern, &it)
				d.checkSet(fmt.Sprintf("ProbeIter(%b,%v)", mask, pattern), drain(&it), want)
				h.r.ScanIter(mask, pattern, &it)
				d.checkSet(fmt.Sprintf("ScanIter(%b,%v)", mask, pattern), drain(&it), want)
				d.checkSet(fmt.Sprintf("Probe(%b,%v)", mask, pattern), h.r.Probe(mask, pattern), want)
			}
		case 5: // Each, Len
			var got []Tuple
			h.r.Each(func(t Tuple) bool {
				got = append(got, t)
				return true
			})
			d.checkSet("Each", got, h.m)
			if h.r.Len() != len(h.m) || h.r.Empty() != (len(h.m) == 0) {
				d.t.Fatalf("Len = %d, Empty = %v, model has %d", h.r.Len(), h.r.Empty(), len(h.m))
			}
		case 6: // Snapshot; later writes land on either side
			c := &relHandle{r: h.r.Snapshot(), m: h.m.clone()}
			if len(d.handles) < 4 {
				d.handles = append(d.handles, c)
			} else {
				d.handles[int(d.byte())%len(d.handles)] = c
			}
		case 7: // Equal and Fingerprint, against another handle and a fresh build
			o := d.handle()
			if got, want := h.r.Equal(o.r), h.m.equal(o.m); got != want {
				d.t.Fatalf("Equal = %v, model says %v", got, want)
			}
			fresh := NewRelation(d.arity)
			for _, t := range h.m {
				fresh.Insert(t)
			}
			if !h.r.Equal(fresh) || !fresh.Equal(h.r) {
				d.t.Fatalf("relation not Equal to a fresh build of its model")
			}
			if h.r.Fingerprint() != fresh.Fingerprint() {
				d.t.Fatalf("Fingerprint differs from a fresh build of the same tuples")
			}
		case 8: // open a cursor to be advanced across later mutations
			c := &openCursor{seen: h.m.clone()}
			mask, pattern := d.mask(), d.tuple()
			if d.byte()%2 == 0 {
				h.r.ProbeIter(mask, pattern, &c.it)
			} else {
				h.r.ScanIter(mask, pattern, &c.it)
			}
			if len(d.cursors) < 4 {
				d.cursors = append(d.cursors, c)
			} else {
				d.cursors[int(d.byte())%len(d.cursors)] = c
			}
		case 9: // advance an open cursor
			if len(d.cursors) == 0 {
				continue
			}
			c := d.cursors[int(d.byte())%len(d.cursors)]
			for n := int(d.byte() % 8); n > 0; n-- {
				t, ok := c.it.Next()
				if !ok {
					break
				}
				if _, was := c.seen[t.Key()]; !was || len(t) != d.arity {
					d.t.Fatalf("cursor yielded %v, absent when the cursor was taken", t)
				}
			}
		case 10: // delete most tuples, past the compaction threshold
			keep := int(d.byte()) % 3
			for k, t := range h.m {
				if keep > 0 {
					keep--
					continue
				}
				if !h.r.Delete(t) {
					d.t.Fatalf("bulk Delete(%v) missed", t)
				}
				delete(h.m, k)
			}
		case 11: // insert the whole domain
			for _, t := range d.allTuples() {
				_, had := h.m[t.Key()]
				if h.r.Insert(t) == had {
					d.t.Fatalf("bulk Insert(%v) disagreed with the model", t)
				}
				h.m[t.Key()] = t
			}
		case 12: // warm an index, possibly while shared
			h.r.BuildIndex(d.mask())
		}
	}
	for _, k := range d.kept {
		if !k.t.Equal(k.want) {
			d.t.Fatalf("retained tuple changed from %v to %v", k.want, k.t)
		}
	}
}

func runRelationOps(t testing.TB, data []byte) {
	if len(data) == 0 {
		return
	}
	// Longer inputs add no new shapes over a domain of 4^3 tuples, only
	// slower executions.
	if len(data) > 1024 {
		data = data[:1024]
	}
	d := &relOps{t: t, arity: int(data[0] % 4), data: data[1:]}
	d.handles = []*relHandle{{r: NewRelation(d.arity), m: relModel{}}}
	d.run()
}

// TestRelationDifferential runs random operation sequences — inserts,
// deletes past the compaction threshold, probes over every mask,
// snapshots written on either side, cursors held across mutations —
// against a map model, for arities 0 to 3.
func TestRelationDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		data := make([]byte, 1+rng.Intn(600))
		rng.Read(data)
		data[0] = byte(i % 4)
		runRelationOps(t, data)
	}
}

// FuzzRelation is the native-fuzzing form of TestRelationDifferential.
func FuzzRelation(f *testing.F) {
	for a := byte(0); a < 4; a++ {
		f.Add([]byte{a, 11, 0, 8, 0, 0, 1, 2, 3, 5, 0, 6, 0, 0, 10, 1, 0, 9, 0, 0, 7, 0, 1, 4, 0, 1, 2, 3})
		f.Add([]byte{a, 11, 0, 12, 0, 1, 6, 0, 0, 10, 0, 1, 0, 4, 1, 0, 0, 0, 7, 1, 0})
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		runRelationOps(t, data)
	})
}

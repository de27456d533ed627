package tuple

import (
	"fmt"
	"sort"
	"strings"

	"unchained/internal/value"
)

// Schema maps relation names to arities (a database schema in the
// sense of Section 2, with attribute names abstracted to positions).
type Schema map[string]int

// Clone returns a copy of the schema.
func (s Schema) Clone() Schema {
	c := make(Schema, len(s))
	for k, v := range s {
		c[k] = v
	}
	return c
}

// Names returns the relation names in sorted order.
func (s Schema) Names() []string {
	out := make([]string, 0, len(s))
	for k := range s {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Instance is a database instance: a finite map from relation names
// to relations. The zero Instance is not ready; use NewInstance.
type Instance struct {
	rels map[string]*Relation
	// cow, when set, tallies snapshot/promote traffic for this
	// instance and everything forked from it (see Counters).
	cow *Counters
}

// NewInstance returns an empty instance.
func NewInstance() *Instance {
	return &Instance{rels: make(map[string]*Relation)}
}

// SetCow attaches a copy-on-write counter sink to the instance and
// all its relations. Snapshots inherit the sink, so one collector
// observes an engine's whole fork tree. A nil sink detaches.
func (in *Instance) SetCow(c *Counters) {
	in.cow = c
	for _, r := range in.rels {
		r.cow = c
	}
}

// Ensure returns the relation named name, creating it with the given
// arity if absent. It panics on an arity conflict with an existing
// relation (a schema violation is a programming error).
func (in *Instance) Ensure(name string, arity int) *Relation {
	if r, ok := in.rels[name]; ok {
		if r.arity != arity {
			panic(fmt.Sprintf("tuple: relation %s has arity %d, requested %d", name, r.arity, arity))
		}
		return r
	}
	r := NewRelation(arity)
	r.cow = in.cow
	in.rels[name] = r
	return r
}

// Relation returns the relation named name, or nil if absent.
func (in *Instance) Relation(name string) *Relation {
	return in.rels[name]
}

// Has reports whether the fact name(t) holds in the instance.
func (in *Instance) Has(name string, t Tuple) bool {
	r := in.rels[name]
	return r != nil && r.Contains(t)
}

// Insert adds the fact name(t), creating the relation if needed, and
// reports whether the fact was new.
func (in *Instance) Insert(name string, t Tuple) bool {
	return in.Ensure(name, len(t)).Insert(t)
}

// Delete removes the fact name(t), reporting whether it was present.
func (in *Instance) Delete(name string, t Tuple) bool {
	r := in.rels[name]
	return r != nil && r.Delete(t)
}

// Names returns the relation names present, sorted.
func (in *Instance) Names() []string {
	out := make([]string, 0, len(in.rels))
	for k := range in.rels {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Schema returns the schema of the instance.
func (in *Instance) Schema() Schema {
	s := make(Schema, len(in.rels))
	for k, r := range in.rels {
		s[k] = r.arity
	}
	return s
}

// Snapshot returns a copy-on-write fork of the instance: O(#relations)
// pointer copies that share every relation's storage with the parent.
// Either side may keep reading and probing the shared data; the first
// write to a relation (on either side) promotes that relation — and
// only that relation — onto a private copy. Taking snapshots of the
// same instance from several goroutines is safe; mutating it is not.
func (in *Instance) Snapshot() *Instance {
	c := &Instance{rels: make(map[string]*Relation, len(in.rels)), cow: in.cow}
	for k, r := range in.rels {
		c.rels[k] = r.Snapshot()
	}
	in.cow.addSnapshot()
	return c
}

// Clone returns a copy of the instance with value semantics. Since
// the COW rewrite it is an alias for Snapshot; use DeepClone for an
// eager deep copy.
func (in *Instance) Clone() *Instance { return in.Snapshot() }

// SnapshotWith is Snapshot with the fork — and all later copy-on-write
// traffic of the snapshot's fork tree — attributed to the counter sink
// c instead of any sink inherited from the parent. Engine entry points
// use it to bind their working copy to the run's stats collector
// without touching the caller's instance.
func (in *Instance) SnapshotWith(c *Counters) *Instance {
	out := &Instance{rels: make(map[string]*Relation, len(in.rels)), cow: c}
	for k, r := range in.rels {
		nr := r.Snapshot()
		nr.cow = c
		out.rels[k] = nr
	}
	c.addSnapshot()
	return out
}

// DeepClone returns an eager deep copy (the pre-COW Clone): every
// relation's rows are copied up front and nothing is shared. It
// exists for benchmarks and for callers that want to pay the whole
// copy immediately.
func (in *Instance) DeepClone() *Instance {
	c := &Instance{rels: make(map[string]*Relation, len(in.rels)), cow: in.cow}
	for k, r := range in.rels {
		c.rels[k] = r.DeepClone()
	}
	return c
}

// Equal reports whether in and o hold exactly the same facts. A
// relation that is absent on one side is treated as equal to an empty
// relation of any arity on the other.
func (in *Instance) Equal(o *Instance) bool {
	for k, r := range in.rels {
		or := o.rels[k]
		if or == nil {
			if !r.Empty() {
				return false
			}
			continue
		}
		if !r.Equal(or) {
			return false
		}
	}
	for k, or := range o.rels {
		if in.rels[k] == nil && !or.Empty() {
			return false
		}
	}
	return true
}

// Facts reports the total number of facts across all relations.
func (in *Instance) Facts() int {
	n := 0
	for _, r := range in.rels {
		n += r.Len()
	}
	return n
}

// Fingerprint returns an order-independent hash of the whole
// instance, mixing each relation's fingerprint with its name. Empty
// relations contribute nothing, so instances that differ only in
// which empty relations are materialized have equal fingerprints
// (consistent with Equal).
func (in *Instance) Fingerprint() uint64 {
	var acc uint64
	for k, r := range in.rels {
		if r.Empty() {
			continue
		}
		acc ^= maphash64(k)*0x100000001b3 ^ r.Fingerprint()
	}
	return acc
}

// maphash64 hashes a string with the package seed.
func maphash64(s string) uint64 {
	var acc uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		acc ^= uint64(s[i])
		acc *= 1099511628211
	}
	return acc
}

// EachRel calls fn for every (name, relation) pair in unspecified
// order, without the sort Names() pays; fn must not mutate the
// instance.
func (in *Instance) EachRel(fn func(name string, r *Relation)) {
	for k, r := range in.rels {
		fn(k, r)
	}
}

// ActiveDomain appends every value occurring in the instance to dst
// (with duplicates) and returns the extended slice. Callers dedupe.
func (in *Instance) ActiveDomain(dst []value.Value) []value.Value {
	for _, r := range in.rels {
		if d := r.data; d.ndead == 0 {
			dst = append(dst, d.vals...)
			continue
		}
		r.Each(func(t Tuple) bool {
			dst = append(dst, t...)
			return true
		})
	}
	return dst
}

// Restrict returns a new instance containing only the named
// relations (those absent from in come out empty with arity from the
// schema, or are skipped when sch is nil and the relation is absent).
func (in *Instance) Restrict(names []string, sch Schema) *Instance {
	out := NewInstance()
	out.cow = in.cow
	for _, n := range names {
		if r := in.rels[n]; r != nil {
			out.rels[n] = r.Snapshot()
		} else if sch != nil {
			if a, ok := sch[n]; ok {
				out.rels[n] = NewRelation(a)
			}
		}
	}
	return out
}

// String renders the instance deterministically: relations sorted by
// name, tuples sorted by value.Compare.
func (in *Instance) String(u *value.Universe) string {
	var b strings.Builder
	for _, n := range in.Names() {
		r := in.rels[n]
		for _, t := range r.SortedTuples(u) {
			b.WriteString(n)
			b.WriteString(t.String(u))
			b.WriteString(".\n")
		}
	}
	return b.String()
}

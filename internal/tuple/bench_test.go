package tuple

import (
	"fmt"
	"math/rand"
	"testing"

	"unchained/internal/value"
)

func benchRelation(n int) (*Relation, []Tuple, *value.Universe) {
	u := value.New()
	rng := rand.New(rand.NewSource(1))
	vals := make([]value.Value, 64)
	for i := range vals {
		vals[i] = u.Int(int64(i))
	}
	r := NewRelation(2)
	tuples := make([]Tuple, n)
	for i := range tuples {
		tuples[i] = Tuple{vals[rng.Intn(64)], vals[rng.Intn(64)]}
		r.Insert(tuples[i])
	}
	return r, tuples, u
}

func BenchmarkRelationInsert(b *testing.B) {
	u := value.New()
	vals := make([]value.Value, 1024)
	for i := range vals {
		vals[i] = u.Int(int64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	r := NewRelation(2)
	for i := 0; i < b.N; i++ {
		r.Insert(Tuple{vals[i%1024], vals[(i/1024)%1024]})
	}
}

func BenchmarkRelationContains(b *testing.B) {
	r, tuples, _ := benchRelation(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Contains(tuples[i%len(tuples)])
	}
}

func BenchmarkRelationProbeIndexed(b *testing.B) {
	for _, n := range []int{1024, 16384} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			r, tuples, _ := benchRelation(n)
			r.Probe(1, tuples[0]) // build the index outside the loop
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.Probe(1, tuples[i%len(tuples)])
			}
		})
	}
}

func BenchmarkRelationProbeScan(b *testing.B) {
	r, tuples, _ := benchRelation(1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.ProbeScan(1, tuples[i%len(tuples)])
	}
}

func BenchmarkRelationMutateWithLiveIndex(b *testing.B) {
	// Incremental index maintenance: insert/delete cycles with a live
	// index must stay O(1)-ish instead of rebuilding.
	r, tuples, u := benchRelation(4096)
	r.Probe(1, tuples[0]) // force the index
	fresh := Tuple{u.Int(9999), u.Int(9999)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Insert(fresh)
		r.Probe(1, fresh)
		r.Delete(fresh)
	}
}

// benchForkInstance builds a 10-relation instance with total tuples,
// with one warm index per relation (the serve steady state).
func benchForkInstance(total int) (*Instance, *value.Universe) {
	u := value.New()
	in := NewInstance()
	per := total / 10
	vals := make([]value.Value, per+1)
	for i := range vals {
		vals[i] = u.Int(int64(i))
	}
	for r := 0; r < 10; r++ {
		name := fmt.Sprintf("R%d", r)
		for i := 0; i < per; i++ {
			in.Insert(name, Tuple{vals[i], vals[(i+1)%per]})
		}
		in.Relation(name).Probe(1, Tuple{vals[0], value.None})
	}
	return in, u
}

// BenchmarkForkSnapshot measures forking a >=100k-tuple instance: the
// COW Snapshot against the eager DeepClone it replaced (the ISSUE 4
// acceptance bar is a >=10x gap), plus the first-write promote cost a
// fork pays only for the relation it touches.
func BenchmarkForkSnapshot(b *testing.B) {
	in, u := benchForkInstance(100_000)
	x, y := u.Int(1_000_001), u.Int(1_000_002)
	b.ReportAllocs()
	b.Run("cow-snapshot", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = in.Snapshot()
		}
	})
	b.Run("deep-clone", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = in.DeepClone()
		}
	})
	b.Run("snapshot-then-write", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := in.Snapshot()
			s.Insert("R0", Tuple{x, y}) // promotes R0 only
		}
	})
}

func BenchmarkInstanceFingerprint(b *testing.B) {
	r, _, _ := benchRelation(4096)
	in := NewInstance()
	in.rels["R"] = r
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in.Fingerprint()
	}
}

// BenchmarkRelationPromote measures the first write after a snapshot
// on one 16k-tuple relation with a warm index: the promote that copies
// the shared storage onto a private generation.
func BenchmarkRelationPromote(b *testing.B) {
	r, tuples, u := benchRelation(16384)
	r.BuildIndex(1)
	fresh := Tuple{u.Int(9999), u.Int(9999)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := r.Snapshot()
		s.Insert(fresh)
	}
	_ = tuples
}

// BenchmarkProbeIterDrain drains one index bucket (~64 tuples)
// through a reused Iterator and reads each tuple's free column, the
// rule matcher's inner loop.
func BenchmarkProbeIterDrain(b *testing.B) {
	r, tuples, _ := benchRelation(16384)
	r.BuildIndex(1)
	var it Iterator
	b.ReportAllocs()
	b.ResetTimer()
	var sum value.Value
	for i := 0; i < b.N; i++ {
		r.ProbeIter(1, tuples[i%len(tuples)], &it)
		for {
			t, ok := it.Next()
			if !ok {
				break
			}
			sum += t[1]
		}
	}
	if sum == 0 {
		b.Fatal("drained nothing")
	}
}

// BenchmarkRelationDeleteChurn slides a 4096-tuple window over a
// stream of distinct tuples with a live index: every iteration
// deletes the oldest tuple and inserts a new one, so deleted rows
// keep accumulating (and, in the arena layout, keep being compacted).
func BenchmarkRelationDeleteChurn(b *testing.B) {
	const window = 4096
	u := value.New()
	vals := make([]value.Value, 1024)
	for i := range vals {
		vals[i] = u.Int(int64(i))
	}
	at := func(i int) Tuple {
		i %= 1024 * 1024
		return Tuple{vals[i%1024], vals[i/1024]}
	}
	r := NewRelation(2)
	for i := 0; i < window; i++ {
		r.Insert(at(i))
	}
	r.BuildIndex(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Insert(at(i + window))
		r.Delete(at(i))
	}
}

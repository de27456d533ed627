package eval

import (
	"fmt"
	"sort"
	"testing"

	"unchained/internal/parser"
	"unchained/internal/tuple"
	"unchained/internal/value"
)

// shardFixture builds one semi-naive delta round of transitive
// closure: E is the edge relation inside the current instance, T holds
// the closed facts so far, and delta carries the frontier derived last
// round. Returns the delta variant for "T(X,Z) :- E(X,Y), T(Y,Z)."
// with the T literal pinned to the delta.
func shardFixture(t *testing.T, n int) (*value.Universe, []DeltaVariant, *Ctx, *tuple.Instance) {
	t.Helper()
	u := value.New()
	in := tuple.NewInstance()
	delta := tuple.NewInstance()
	for i := 0; i < n; i++ {
		a := u.Sym(fmt.Sprintf("n%d", i))
		b := u.Sym(fmt.Sprintf("n%d", (i+1)%n))
		in.Insert("E", tuple.Tuple{a, b})
		in.Insert("T", tuple.Tuple{a, b})
		delta.Insert("T", tuple.Tuple{a, b})
	}
	r, err := parser.ParseRule("T(X,Z) :- E(X,Y), T(Y,Z).", u)
	if err != nil {
		t.Fatal(err)
	}
	dv, err := CompileDelta(r, 1)
	if err != nil {
		t.Fatal(err)
	}
	base := &Ctx{In: in, Adom: ActiveDomain(u, nil, in)}
	return u, []DeltaVariant{{Rule: dv, Lit: 1}}, base, delta
}

// collectSharded runs RunSharded and returns the staged facts
// rendered and sorted for comparison (a fact staged by several
// workers appears once per worker), and the number of head facts the
// workers emitted.
func collectSharded(u *value.Universe, variants []DeltaVariant, base *Ctx, delta *tuple.Instance, shards, mergeBuf int, done <-chan struct{}) ([]string, int) {
	var got []string
	total := 0
	RunSharded(variants, base, delta, shards, mergeBuf, done, func(staged *tuple.Instance, emitted int) {
		total += emitted
		for _, name := range staged.Names() {
			staged.Relation(name).Each(func(t tuple.Tuple) bool {
				got = append(got, name+t.String(u))
				return true
			})
		}
	})
	sort.Strings(got)
	return got, total
}

// TestRunShardedMatchesSerial is the merge-barrier unit test: at 1, 2,
// and 8 shards the staged fact set (after dedupe — relations are
// sets) must equal the serial enumeration of the same round.
func TestRunShardedMatchesSerial(t *testing.T) {
	u, variants, base, delta := shardFixture(t, 64)

	// Serial reference: enumerate the variant over the whole delta.
	ref, _ := collectSharded(u, variants, base, delta, 1, 1, nil)
	if len(ref) == 0 {
		t.Fatal("fixture produced no facts; test is vacuous")
	}
	dedupe := func(in []string) []string {
		out := in[:0:0]
		for i, s := range in {
			if i == 0 || s != in[i-1] {
				out = append(out, s)
			}
		}
		return out
	}
	refSet := dedupe(ref)
	for _, shards := range []int{2, 8} {
		for _, buf := range []int{1, 2 * shards} {
			staged, _ := collectSharded(u, variants, base, delta, shards, buf, nil)
			got := dedupe(staged)
			if len(got) != len(refSet) {
				t.Fatalf("shards=%d buf=%d emitted %d distinct facts, serial %d", shards, buf, len(got), len(refSet))
			}
			for i := range got {
				if got[i] != refSet[i] {
					t.Fatalf("shards=%d buf=%d fact %d = %s, serial %s", shards, buf, i, got[i], refSet[i])
				}
			}
		}
	}
}

// TestRunShardedDisjointWork checks that shards do not duplicate
// firings: the raw (pre-dedupe) emission count must match serial,
// because every delta tuple lives on exactly one shard.
func TestRunShardedDisjointWork(t *testing.T) {
	u, variants, base, delta := shardFixture(t, 64)
	_, ref := collectSharded(u, variants, base, delta, 1, 1, nil)
	for _, shards := range []int{2, 8} {
		_, got := collectSharded(u, variants, base, delta, shards, 4, nil)
		if got != ref {
			t.Fatalf("shards=%d emitted %d facts raw, serial %d — shards overlap or drop work", shards, got, ref)
		}
	}
}

// TestRunShardedCancelled closes done before the round starts: workers
// must notice within their poll window, the barrier must still drain
// and join (no goroutine may be left writing to the channel), and the
// call must return. Partial output is acceptable; a hang is not.
func TestRunShardedCancelled(t *testing.T) {
	u, variants, base, delta := shardFixture(t, 512)
	done := make(chan struct{})
	close(done)
	_, got := collectSharded(u, variants, base, delta, 8, 1, done)
	_, ref := collectSharded(u, variants, base, delta, 1, 1, nil)
	if got > ref {
		t.Fatalf("cancelled round emitted %d facts, full round %d", got, ref)
	}
}

// TestRunShardedClampsArguments pins the defensive clamps: zero or
// negative shard and buffer counts degrade to the serial configuration
// instead of panicking.
func TestRunShardedClampsArguments(t *testing.T) {
	u, variants, base, delta := shardFixture(t, 16)
	_, ref := collectSharded(u, variants, base, delta, 1, 1, nil)
	_, got := collectSharded(u, variants, base, delta, 0, 0, nil)
	if got != ref {
		t.Fatalf("clamped run emitted %d facts, serial %d", got, ref)
	}
}

// TestRunShardedNegInSnapshot exercises the NegIn snapshot path with a
// stratified-shape rule reading a negated literal.
func TestRunShardedNegInSnapshot(t *testing.T) {
	u := value.New()
	in := tuple.NewInstance()
	negIn := tuple.NewInstance()
	delta := tuple.NewInstance()
	for i := 0; i < 32; i++ {
		a := u.Sym(fmt.Sprintf("n%d", i))
		in.Insert("P", tuple.Tuple{a})
		delta.Insert("P", tuple.Tuple{a})
		if i%2 == 0 {
			negIn.Insert("Q", tuple.Tuple{a})
		}
	}
	negIn.Ensure("Q", 1)
	r, err := parser.ParseRule("R(X) :- P(X), !Q(X).", u)
	if err != nil {
		t.Fatal(err)
	}
	dv, err := CompileDelta(r, 0)
	if err != nil {
		t.Fatal(err)
	}
	variants := []DeltaVariant{{Rule: dv, Lit: 0}}
	base := &Ctx{In: in, NegIn: negIn, Adom: ActiveDomain(u, nil, in)}
	got, _ := collectSharded(u, variants, base, delta, 4, 2, nil)
	if len(got) != 16 {
		t.Fatalf("want 16 facts (odd-indexed P's), got %d: %v", len(got), got)
	}
}

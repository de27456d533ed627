// P10: shard-parallel semi-naive evaluation vs serial on a large-EDB
// recursive join. Transitive closure over a dense random graph is the
// showcase shape: after the serial round 0, every delta round joins
// the freshly derived T-delta against the full edge relation, so the
// work the shards split grows with the frontier and the merge barrier
// is a small fraction of each round.
package main

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"unchained/internal/declarative"
	"unchained/internal/gen"
	"unchained/internal/parser"
	"unchained/internal/stats"
	"unchained/internal/value"
)

// p10Reps is the number of timed runs per shard count; each count
// reports its best.
const p10Reps = 3

func expP10(quick bool) error {
	const prog = `
		T(X,Y) :- E(X,Y).
		T(X,Z) :- E(X,Y), T(Y,Z).
	`
	fmt.Printf("%8s %8s %12s %8s %14s\n", "n", "shards", "best", "speedup", "facts merged")
	shardCounts := []int{1, 2, 8}
	worst := 0.0
	for _, n := range pick(quick, []int{192}, []int{192, 384}) {
		u := value.New()
		in := gen.Random(u, "E", n, 6*n, int64(n))
		p := parser.MustParse(prog, u)
		// One discarded run first: it builds the input's indexes, so
		// every timed run below starts from the same warm input
		// instead of the first one paying for the warm-up. The timed
		// runs interleave the shard counts and keep each count's best.
		serial, err := declarative.Eval(p, in, u, nil)
		if err != nil {
			return err
		}
		best := make([]time.Duration, len(shardCounts))
		merged := make([]uint64, len(shardCounts))
		for rep := 0; rep < p10Reps; rep++ {
			for i, shards := range shardCounts {
				var res *declarative.Result
				col := stats.New()
				d := timed(func() {
					res, err = declarative.Eval(p, in, u, &declarative.Options{Shards: shards, Stats: col})
				})
				if err != nil {
					return err
				}
				if err := check(res.Out.Equal(serial.Out),
					"shards=%d changed the answer at n=%d", shards, n); err != nil {
					return err
				}
				if rep == 0 || d < best[i] {
					best[i] = d
				}
				merged[i] = col.Summary().ShardFactsMerged
			}
		}
		for i, shards := range shardCounts {
			speedup := float64(best[0]) / float64(best[i])
			if shards == 8 && (worst == 0 || speedup < worst) {
				worst = speedup
			}
			fmt.Printf("%8d %8d %12v %7.1fx %14d\n", n, shards,
				best[i].Round(time.Millisecond), speedup, merged[i])
		}
	}
	// Record serial and 8-shard runs for the bench-regression gate.
	u := value.New()
	in := gen.Random(u, "E", 192, 6*192, 192)
	p := parser.MustParse(prog, u)
	benchNote("shard/tc-serial", testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := declarative.Eval(p, in, u, nil); err != nil {
				b.Fatal(err)
			}
		}
	}))
	benchNote("shard/tc-8shards", testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := declarative.Eval(p, in, u, &declarative.Options{Shards: 8}); err != nil {
				b.Fatal(err)
			}
		}
	}))
	// The >=1.5x wall-clock bar needs hardware parallelism; on a
	// single-core box the shards serialize and only the determinism
	// checks are meaningful. It runs only from the unchained-bench
	// binary (make bench-baseline, the bench-regression CI job): under
	// go test the suite checks what is deterministic — outputs and
	// counts — and never a timing on a host shared with other tests.
	switch procs := runtime.GOMAXPROCS(0); {
	case testing.Testing():
		fmt.Printf("   note: speedup bar checked by the unchained-bench binary only (outputs verified identical).\n")
	case procs < 2:
		fmt.Printf("   note: GOMAXPROCS=%d — speedup bar waived (outputs verified identical).\n", procs)
	default:
		if err := check(worst >= 1.5,
			"8-shard speedup %.2fx below the 1.5x acceptance bar (GOMAXPROCS=%d)", worst, procs); err != nil {
			return err
		}
	}
	fmt.Println("   shape: every shard count computes the serial answer; whether hash-partitioning the")
	fmt.Println("   frontier pays depends on spare cores for the workers (see EXPERIMENTS.md P10).")
	return nil
}

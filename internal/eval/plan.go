// The clause planner. A compiled rule carries the seed's
// literal-order greedy schedule as its baseline; at enumeration time
// the planner may substitute a cardinality-ordered alternative:
// positive atoms are joined cheapest-estimate first (est = |R| /
// 10^bound, with |R| the live cardinality of the relation the literal
// matches against), equalities and negative checks are pushed down to
// the earliest point their variables are bound, and delta literals
// stay pinned first. Both schedules share one Binding layout —
// variable ids depend only on the rule text (see compileCost) — so
// switching plans between stages is free.
//
// Plans are memoized on the rule keyed by a cardinality signature:
// the size decade (digit count) of every joined relation, 4 bits per
// positive literal. Re-planning therefore happens only when some
// relation's cardinality reaches a decade not seen before — cheap
// enough to leave on for every engine, while still adapting as a
// fixpoint's IDB grows. The memo holds several signatures, so a
// Datalog¬¬ program whose relations flip between decades from stage
// to stage plans each shape once, not once per stage.
// A daemon serving many requests over the same program shares plans
// across compilations through a PlanCache (see internal/serve).
package eval

import (
	"fmt"
	"math/bits"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"unchained/internal/ast"
	"unchained/internal/tuple"
	"unchained/internal/value"
)

// planMemoCap bounds the per-rule plan memo. A rule of k joined
// relations has at most 16^k signatures, but one evaluation visits a
// handful; past the cap an arbitrary entry is evicted.
const planMemoCap = 8

// planState is the per-rule plan memo.
type planState struct {
	mu      sync.Mutex
	memo    map[uint64][]step // cardinality signature -> schedule
	emitted string            // dedup key of the last plan span emitted
}

// planFor returns the step schedule to enumerate with under ctx, and
// whether it is a planner choice (as opposed to the baseline
// schedule). Safe for concurrent use by parallel stage workers; the
// engine goroutine pre-fills the memo via WarmIndexes.
func (r *Rule) planFor(ctx *Ctx) ([]step, bool) {
	// Fewer than two joins leave nothing to reorder; past 16 the
	// signature packing would overflow (and such bodies are rare
	// enough that the baseline schedule is fine).
	if ctx.NoPlan || len(r.posBody) < 2 || len(r.posBody) > 16 {
		return r.steps, false
	}
	sig := r.planSig(ctx)
	if ctx.Plans != nil {
		if st, ok := ctx.Plans.lookup(r.planKey, sig); ok {
			return st, true
		}
		st := r.replan(ctx)
		ctx.Plans.store(r.planKey, sig, st)
		return st, true
	}
	r.plan.mu.Lock()
	defer r.plan.mu.Unlock()
	if st, ok := r.plan.memo[sig]; ok {
		return st, true
	}
	st := r.replan(ctx)
	if r.plan.memo == nil {
		r.plan.memo = make(map[uint64][]step, planMemoCap)
	}
	if len(r.plan.memo) >= planMemoCap {
		for k := range r.plan.memo {
			delete(r.plan.memo, k)
			break
		}
	}
	r.plan.memo[sig] = st
	return st, true
}

// replan re-runs the scheduler with the context's live cardinalities.
// On any surprise (a scheduling error, a variable-layout mismatch) it
// falls back to the baseline schedule: plans are an optimization and
// must never change what a rule computes.
func (r *Rule) replan(ctx *Ctx) []step {
	alt, err := compileCost(r.Src, r.deltaLit, func(litIndex int, pred string) int {
		return ctxSize(ctx, litIndex, pred)
	})
	if err != nil || len(alt.Vars) != len(r.Vars) {
		return r.steps
	}
	for i, v := range alt.Vars {
		if r.Vars[i] != v {
			return r.steps
		}
	}
	return alt.steps
}

// ctxSize is the cardinality a positive body literal joins against:
// the delta relation for the pinned delta literal, otherwise In plus
// any Aux overlay.
func ctxSize(ctx *Ctx, litIndex int, pred string) int {
	if ctx.Delta != nil && litIndex == ctx.DeltaLit {
		if rel := relOf(ctx.Delta, pred); rel != nil {
			return rel.Len()
		}
		return 0
	}
	n := 0
	if rel := relOf(ctx.In, pred); rel != nil {
		n = rel.Len()
	}
	if ctx.Aux != nil {
		if rel := relOf(ctx.Aux, pred); rel != nil {
			n += rel.Len()
		}
	}
	return n
}

// estCard estimates a probe's output cardinality: size discounted by
// a factor of 10 per bound column. Empty relations estimate 0 — the
// cheapest possible join, correctly scheduled first to short-circuit.
func estCard(size, bound int) int {
	if bound > 9 {
		bound = 9
	}
	p := 1
	for i := 0; i < bound; i++ {
		p *= 10
	}
	if est := size / p; est >= 1 {
		return est
	}
	if size > 0 {
		return 1
	}
	return 0
}

// decade is the decimal digit count of n, capped at 15 to fit the
// 4-bit signature lanes.
func decade(n int) uint64 {
	var d uint64
	for n > 0 {
		d++
		n /= 10
	}
	if d > 15 {
		d = 15
	}
	return d
}

// planSig packs the size decade of every joined relation, in body
// order, 4 bits each. Equal signatures mean every cardinality is in
// the same decade as when the memoized plan was chosen.
func (r *Rule) planSig(ctx *Ctx) uint64 {
	var sig uint64
	for _, li := range r.posBody {
		sig = sig<<4 | decade(ctxSize(ctx, li, r.Src.Body[li].Atom.Pred))
	}
	return sig
}

// bodyKey renders a rule body (plus the delta pin) into a structural
// identity string for shared plan caching. Two rules with equal keys
// compile to identical step structures, so a cached plan is safe to
// reuse across compilations.
func bodyKey(r ast.Rule, deltaLit int) string {
	var b strings.Builder
	b.WriteString(strconv.Itoa(deltaLit))
	for _, l := range r.Body {
		writeLitKey(&b, l)
	}
	return b.String()
}

func writeLitKey(b *strings.Builder, l ast.Literal) {
	if l.Neg {
		b.WriteByte('!')
	}
	switch l.Kind {
	case ast.LitAtom:
		b.WriteString(l.Atom.Pred)
		b.WriteByte('(')
		for _, t := range l.Atom.Args {
			writeTermKey(b, t)
		}
		b.WriteByte(')')
	case ast.LitEq:
		b.WriteByte('=')
		writeTermKey(b, l.Left)
		writeTermKey(b, l.Right)
	case ast.LitForall:
		b.WriteString("A[")
		for _, v := range l.ForallVars {
			b.WriteString(v)
			b.WriteByte(',')
		}
		b.WriteByte(':')
		for _, inner := range l.ForallBody {
			writeLitKey(b, inner)
		}
		b.WriteByte(']')
	default:
		b.WriteByte('?')
	}
	b.WriteByte(';')
}

func writeTermKey(b *strings.Builder, t ast.Term) {
	if t.IsVar() {
		b.WriteByte('v')
		b.WriteString(t.Var)
	} else {
		b.WriteByte('c')
		b.WriteString(strconv.FormatUint(uint64(t.Const), 10))
	}
	b.WriteByte(',')
}

// planCacheKey pairs a rule body identity with a cardinality-decade
// signature.
type planCacheKey struct {
	rule string
	sig  uint64
}

// PlanCache shares planner-chosen schedules across rule compilations
// of the same program text — the daemon compiles a cached program
// anew per request, so without it every request would re-derive the
// same plans. Entries are invalidated implicitly: a relation growing
// (or shrinking) across a size decade changes the signature half of
// the key, so the stale plan is simply never looked up again. Safe
// for concurrent use.
type PlanCache struct {
	mu           sync.Mutex
	m            map[planCacheKey][]step
	hits, misses atomic.Uint64
}

// NewPlanCache returns an empty plan cache.
func NewPlanCache() *PlanCache {
	return &PlanCache{m: make(map[planCacheKey][]step)}
}

func (c *PlanCache) lookup(rule string, sig uint64) ([]step, bool) {
	c.mu.Lock()
	st, ok := c.m[planCacheKey{rule, sig}]
	c.mu.Unlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return st, ok
}

func (c *PlanCache) store(rule string, sig uint64, st []step) {
	c.mu.Lock()
	c.m[planCacheKey{rule, sig}] = st
	c.mu.Unlock()
}

// PlanCacheStats is a point-in-time reading of a PlanCache.
type PlanCacheStats struct {
	Hits    uint64 `json:"plan_cache_hits"`
	Misses  uint64 `json:"plan_cache_misses"`
	Entries int    `json:"plan_cache_entries"`
}

// Stats returns the cache's hit/miss counters and live entry count.
// Nil-safe (all zeros).
func (c *PlanCache) Stats() PlanCacheStats {
	if c == nil {
		return PlanCacheStats{}
	}
	c.mu.Lock()
	n := len(c.m)
	c.mu.Unlock()
	return PlanCacheStats{Hits: c.hits.Load(), Misses: c.misses.Load(), Entries: n}
}

// planTrace is the per-Enumerate local accumulator: probe/scan
// counts always (flushed to the collector in one batch, so the hot
// match loop never touches a shared atomic), and — only when plan
// tracing is on — the actual number of tuples each step pulled, for
// the est-vs-act line of -explain. counts stays nil when plan tracing
// is off.
type planTrace struct {
	probes, scans uint64
	counts        []int64
}

// probe tallies one relation match locally; a nil receiver (stats
// disabled) costs one branch, matching Collector.Probe's contract.
func (tr *planTrace) probe(scan bool) {
	if tr == nil {
		return
	}
	if scan {
		tr.scans++
	} else {
		tr.probes++
	}
}

// label names the rule for trace events: its first non-⊥ head.
func (r *Rule) label() string {
	for _, h := range r.heads {
		if !h.Bottom {
			return h.Pred
		}
	}
	return "⊥"
}

// planDesc renders the chosen join order with estimated and (when
// counts is non-nil) actual cumulative cardinalities. key is the
// actuals-free prefix used to dedup emission across stages.
func (r *Rule) planDesc(ctx *Ctx, steps []step, counts []int64) (key, desc string) {
	var kb, db strings.Builder
	cum := 1
	first := true
	for i := range steps {
		st := &steps[i]
		if st.kind != stepMatch {
			continue
		}
		if !first {
			kb.WriteString(" ⋈ ")
			db.WriteString(" ⋈ ")
		}
		first = false
		est := estCard(ctxSize(ctx, st.litIndex, st.pred), bits.OnesCount32(st.mask))
		if cum < 1<<40 { // keep the running product from overflowing
			cum *= est
		}
		part := fmt.Sprintf("%s#%d est=%d", st.pred, st.litIndex, cum)
		kb.WriteString(part)
		db.WriteString(part)
		if counts != nil {
			fmt.Fprintf(&db, " act=%d", counts[i])
		}
	}
	return kb.String(), db.String()
}

// AdomCache memoizes the sorted, deduplicated active domain
// adom(P, I) across fixpoint stages. Engines that recompute the
// domain per stage (invent), per firing (active) or per explored
// state (nondet) consult the cache instead: when every relation's
// storage stamp is unchanged since the last computation the cached
// slice is returned as-is, so the O(n log n) sort-and-dedup is paid
// only when the instance actually changed.
//
// A stamp is (generation, cardinality) — and, unless the engine
// declares itself insert-only, the relation fingerprint, which
// catches a delete+insert pair that leaves the cardinality unchanged
// (sole-owner in-place writes do not bump the generation). Not safe
// for concurrent use; engines own one cache per run.
type AdomCache struct {
	u          *value.Universe
	consts     []value.Value
	insertOnly bool
	stamps     map[string]adomStamp
	cached     []value.Value
	valid      bool
	recomputes int
}

type adomStamp struct {
	gen uint64
	n   int
	fp  uint64
}

// NewAdomCache returns a cache over the given program constants.
// insertOnly engines (facts are only ever added) skip the fingerprint
// half of the stamp check.
func NewAdomCache(u *value.Universe, progConsts []value.Value, insertOnly bool) *AdomCache {
	return &AdomCache{u: u, consts: progConsts, insertOnly: insertOnly, stamps: map[string]adomStamp{}}
}

// Domain returns adom(P, in), recomputing only when in changed since
// the previous call. The returned slice is shared with the cache;
// callers must not mutate it.
func (c *AdomCache) Domain(in *tuple.Instance) []value.Value {
	if c.valid && c.unchanged(in) {
		return c.cached
	}
	c.restamp(in)
	c.cached = ActiveDomain(c.u, c.consts, in)
	c.valid = true
	c.recomputes++
	return c.cached
}

// Recomputes reports how many times Domain actually recomputed.
func (c *AdomCache) Recomputes() int { return c.recomputes }

func (c *AdomCache) unchanged(in *tuple.Instance) bool {
	n, same := 0, true
	in.EachRel(func(name string, r *tuple.Relation) {
		n++
		st, ok := c.stamps[name]
		if !ok || st.gen != r.Generation() || st.n != r.Len() {
			same = false
			return
		}
		if !c.insertOnly && st.fp != r.Fingerprint() {
			same = false
		}
	})
	return same && n == len(c.stamps)
}

func (c *AdomCache) restamp(in *tuple.Instance) {
	clear(c.stamps)
	in.EachRel(func(name string, r *tuple.Relation) {
		st := adomStamp{gen: r.Generation(), n: r.Len()}
		if !c.insertOnly {
			st.fp = r.Fingerprint()
		}
		c.stamps[name] = st
	})
}

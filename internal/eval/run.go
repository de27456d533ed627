package eval

import (
	"sort"

	"unchained/internal/ast"
	"unchained/internal/stats"
	"unchained/internal/tuple"
	"unchained/internal/value"
)

// Ctx carries the evaluation environment for one enumeration pass.
type Ctx struct {
	// In is the instance positive literals match against and
	// negative literals are checked against (the current K).
	In *tuple.Instance
	// Adom is the active domain adom(P, K), sorted for determinism.
	// Variables not bound by the positive body structure are
	// enumerated over it.
	Adom []value.Value
	// NegIn, if non-nil, is the instance negative literals are
	// checked against instead of In. The well-founded engine uses it
	// to evaluate the Gelfond–Lifschitz-style reduct: positives match
	// the growing fixpoint while negatives test a fixed estimate.
	NegIn *tuple.Instance
	// Aux, if non-nil, overlays In for positive matching: positive
	// literals match In ∪ Aux. The incremental-maintenance engine
	// uses it to evaluate against the pre-deletion state (current
	// state ∪ deleted facts) without cloning. Tuples present in both
	// are visited exactly once (the overlay skips candidates already
	// in In), so firing counts and provenance match a materialized
	// union.
	Aux *tuple.Instance
	// Delta, if non-nil, replaces In for the positive body literal
	// with index DeltaLit (semi-naive evaluation).
	Delta    *tuple.Instance
	DeltaLit int
	// Scan disables hash-index probes (full-scan matching), for the
	// index-ablation benchmark.
	Scan bool
	// Stats, if non-nil, receives an index-probe/full-scan count for
	// every relation match. A nil collector costs one branch.
	Stats *stats.Collector

	// NoPlan disables the cardinality planner: rules enumerate with
	// their baseline literal-order schedule (the seed behavior, kept
	// for oracle comparisons and ablation).
	NoPlan bool
	// Plans, if non-nil, shares planner schedules across rule
	// compilations (see PlanCache); nil uses a per-rule memo.
	Plans *PlanCache
	// PlanTrace allows Enumerate to emit the chosen plan as a trace
	// span through Stats. Engines set it only on single-goroutine
	// evaluation paths (the collector's tracing state is not safe for
	// concurrent emission from stage workers).
	PlanTrace bool
}

// Binding is a valuation of a compiled rule's variables, indexed by
// variable id; value.None means unbound.
type Binding []value.Value

// Enumerate calls emit for every valuation of the rule's body that is
// satisfied in ctx. The binding passed to emit is reused across
// calls; emit must copy it if it needs to retain it. emit returning
// false stops the enumeration early. Head-only (invented) variables
// are left as value.None in the binding.
func (r *Rule) Enumerate(ctx *Ctx, emit func(Binding) bool) {
	steps, planned := r.planFor(ctx)
	var tr *planTrace
	if ctx.Stats.Enabled() {
		tr = &planTrace{}
		if planned && ctx.PlanTrace && ctx.Stats.Tracing() {
			tr.counts = make([]int64, len(steps))
		}
	}
	b := make(Binding, len(r.Vars))
	r.run(ctx, steps, 0, b, emit, tr)
	if tr == nil {
		return
	}
	ctx.Stats.ProbeBatch(tr.probes, tr.scans)
	if tr.counts != nil {
		key, desc := r.planDesc(ctx, steps, tr.counts)
		r.plan.mu.Lock()
		seen := r.plan.emitted == key
		r.plan.emitted = key
		r.plan.mu.Unlock()
		if !seen {
			ctx.Stats.PlanSpan(r.label(), desc)
		}
	}
}

// drainMatch pulls the iterator dry, binding and recursing per candidate.
// skip, if non-nil, suppresses candidates it contains — the Aux
// overlay pass uses the In relation here so tuples present in both
// sources are visited exactly once. Returns false on early exit.
func (r *Rule) drainMatch(ctx *Ctx, steps []step, st *step, it *tuple.Iterator, si int, b Binding, emit func(Binding) bool, skip *tuple.Relation, tr *planTrace) bool {
	for {
		t, more := it.Next()
		if !more {
			return true
		}
		if skip != nil && skip.Contains(t) {
			continue
		}
		if tr != nil && tr.counts != nil {
			tr.counts[si]++
		}
		ok := true
		for _, ab := range st.binds {
			b[ab.varID] = t[ab.pos]
		}
		for _, ac := range st.checks {
			if t[ac.pos] != b[ac.varID] {
				ok = false
				break
			}
		}
		if ok && !r.run(ctx, steps, si+1, b, emit, tr) {
			return false
		}
	}
}

func (r *Rule) run(ctx *Ctx, steps []step, si int, b Binding, emit func(Binding) bool, tr *planTrace) bool {
	if si == len(steps) {
		return emit(b)
	}
	st := &steps[si]
	switch st.kind {
	case stepMatch:
		src := ctx.In
		if ctx.Delta != nil && st.litIndex == ctx.DeltaLit {
			src = ctx.Delta
		}
		rel := relOf(src, st.pred)
		if rel != nil && rel.Arity() != st.arity {
			rel = nil
		}
		var aux *tuple.Relation
		if ctx.Aux != nil && src != ctx.Delta {
			if a := relOf(ctx.Aux, st.pred); a != nil && a.Arity() == st.arity {
				aux = a
			}
		}
		if rel == nil && aux == nil {
			return true // empty relation: no matches, keep going elsewhere
		}
		// Build the probe pattern for the bound positions.
		var pattern tuple.Tuple
		if st.mask != 0 {
			pattern = make(tuple.Tuple, st.arity)
			for pos, s := range st.slots {
				if st.mask&(1<<uint(pos)) == 0 {
					continue
				}
				if s.isVar {
					pattern[pos] = b[s.varID]
				} else {
					pattern[pos] = s.val
				}
			}
		}
		var it tuple.Iterator
		done := true
		if rel != nil {
			tr.probe(ctx.Scan)
			if ctx.Scan {
				rel.ScanIter(st.mask, pattern, &it)
			} else {
				rel.ProbeIter(st.mask, pattern, &it)
			}
			done = r.drainMatch(ctx, steps, st, &it, si, b, emit, nil, tr)
		}
		if done && aux != nil {
			tr.probe(ctx.Scan)
			if ctx.Scan {
				aux.ScanIter(st.mask, pattern, &it)
			} else {
				aux.ProbeIter(st.mask, pattern, &it)
			}
			done = r.drainMatch(ctx, steps, st, &it, si, b, emit, rel, tr)
		}
		for _, ab := range st.binds {
			b[ab.varID] = value.None
		}
		return done

	case stepNegCheck:
		t := make(tuple.Tuple, st.arity)
		for pos, s := range st.slots {
			if s.isVar {
				t[pos] = b[s.varID]
			} else {
				t[pos] = s.val
			}
		}
		negSrc := ctx.In
		if ctx.NegIn != nil {
			negSrc = ctx.NegIn
		}
		rel := relOf(negSrc, st.pred)
		if rel != nil && rel.Contains(t) {
			return true // literal false under this valuation
		}
		return r.run(ctx, steps, si+1, b, emit, tr)

	case stepEqAssign:
		// left is the unbound variable side by construction.
		var v value.Value
		if st.right.isVar {
			v = b[st.right.varID]
		} else {
			v = st.right.val
		}
		b[st.left.varID] = v
		ok := r.run(ctx, steps, si+1, b, emit, tr)
		b[st.left.varID] = value.None
		return ok

	case stepEqTest:
		l, rr := slotVal(st.left, b), slotVal(st.right, b)
		if (l == rr) == st.negEq {
			return true
		}
		return r.run(ctx, steps, si+1, b, emit, tr)

	case stepEnum:
		for _, v := range ctx.Adom {
			b[st.enumVar] = v
			if !r.run(ctx, steps, si+1, b, emit, tr) {
				b[st.enumVar] = value.None
				return false
			}
		}
		b[st.enumVar] = value.None
		return true

	case stepForall:
		if r.forallHolds(ctx, st, 0, b) {
			return r.run(ctx, steps, si+1, b, emit, tr)
		}
		return true
	}
	return true
}

// forallHolds checks a ∀-literal: every extension of the current
// binding over the quantified variables (valuated in the active
// domain) must satisfy all inner checks.
func (r *Rule) forallHolds(ctx *Ctx, st *step, qi int, b Binding) bool {
	if qi == len(st.forallVars) {
		for _, c := range st.forallPlan {
			switch c.kind {
			case stepMatch, stepNegCheck:
				t := make(tuple.Tuple, len(c.slots))
				for pos, s := range c.slots {
					t[pos] = slotVal(s, b)
				}
				src := ctx.In
				if c.kind == stepNegCheck && ctx.NegIn != nil {
					src = ctx.NegIn
				}
				rel := relOf(src, c.pred)
				has := rel != nil && rel.Contains(t)
				if has == (c.kind == stepNegCheck) {
					return false
				}
			case stepEqTest:
				l, rr := slotVal(c.left, b), slotVal(c.right, b)
				if (l == rr) == c.negEq {
					return false
				}
			}
		}
		return true
	}
	id := st.forallVars[qi]
	saved := b[id]
	for _, v := range ctx.Adom {
		b[id] = v
		if !r.forallHolds(ctx, st, qi+1, b) {
			b[id] = saved
			return false
		}
	}
	b[id] = saved
	return true
}

func slotVal(s slot, b Binding) value.Value {
	if s.isVar {
		return b[s.varID]
	}
	return s.val
}

// Fact is one emitted head fact.
type Fact struct {
	Neg    bool // retraction (Datalog¬¬ head negation)
	Bottom bool // the inconsistency symbol ⊥
	Pred   string
	Tuple  tuple.Tuple
}

// HeadFacts materializes the head literals of the rule under binding
// b. invent supplies values for head-only variables; it is called
// once per head-only variable per call (so all head literals of one
// firing share the invented values). invent may be nil when the rule
// has no head-only variables.
func (r *Rule) HeadFacts(b Binding, invent func(varID int) value.Value) []Fact {
	var local Binding
	if len(r.headOnly) > 0 {
		local = make(Binding, len(b))
		copy(local, b)
		for _, id := range r.headOnly {
			local[id] = invent(id)
		}
		b = local
	}
	out := make([]Fact, 0, len(r.heads))
	for _, h := range r.heads {
		if h.Bottom {
			out = append(out, Fact{Bottom: true})
			continue
		}
		t := make(tuple.Tuple, len(h.Slots))
		for pos, s := range h.Slots {
			t[pos] = slotVal(s, b)
		}
		out = append(out, Fact{Neg: h.Neg, Pred: h.Pred, Tuple: t})
	}
	return out
}

// WarmIndexes pre-builds every index the rules' match steps will
// probe against the context's instances — In, Delta, the Aux overlay,
// and the NegIn reduct alike (full scans and fully bound probes need
// none). Indexes are otherwise built lazily on first probe, which
// mutates the shared relation — unsafe when several goroutines
// evaluate rules of the same stage concurrently. Warming makes
// subsequent Enumerate calls read-only on the instance. It also
// resolves each rule's plan for the context on the calling (engine)
// goroutine, so stage workers reuse the memoized schedule. No-op in
// Scan mode (ScanIter builds no indexes).
func WarmIndexes(rules []*Rule, ctx *Ctx) {
	if ctx.Scan {
		return
	}
	warm := func(in *tuple.Instance, pred string, mask uint32, arity int) {
		if in == nil {
			return
		}
		rel := in.Relation(pred)
		if rel == nil || rel.Arity() != arity {
			return
		}
		rel.BuildIndex(mask)
	}
	for _, r := range rules {
		steps, _ := r.planFor(ctx)
		for i := range steps {
			st := &steps[i]
			switch st.kind {
			case stepMatch:
				if ctx.Delta != nil && st.litIndex == ctx.DeltaLit {
					warm(ctx.Delta, st.pred, st.mask, st.arity)
					continue
				}
				warm(ctx.In, st.pred, st.mask, st.arity)
				warm(ctx.Aux, st.pred, st.mask, st.arity)
			case stepNegCheck:
				// Negative literals are fully bound (Contains, no
				// index today), but warm their source anyway so a
				// future partial-mask check cannot reintroduce a
				// lazy build under workers.
				src := ctx.In
				if ctx.NegIn != nil {
					src = ctx.NegIn
				}
				warm(src, st.pred, st.mask, st.arity)
			}
		}
	}
}

// GroundBodyAtom materializes the body literal with index litIndex (an
// atom, positive or negative) under binding b. ok is false for
// non-atom literals (equalities, ∀) and out-of-range indexes. The
// incremental maintainer uses it to attribute a changed rule firing to
// its first changed body position.
func (r *Rule) GroundBodyAtom(b Binding, litIndex int) (Fact, bool) {
	if litIndex < 0 || litIndex >= len(r.Src.Body) {
		return Fact{}, false
	}
	l := r.Src.Body[litIndex]
	if l.Kind != ast.LitAtom {
		return Fact{}, false
	}
	t := make(tuple.Tuple, len(l.Atom.Args))
	for i, a := range l.Atom.Args {
		if a.IsVar() {
			t[i] = b[r.varIDs[a.Var]]
		} else {
			t[i] = a.Const
		}
	}
	return Fact{Neg: l.Neg, Pred: l.Atom.Pred, Tuple: t}, true
}

// BodySupports materializes the positive body atoms of the rule under
// binding b — the facts a firing "used", as recorded by provenance
// tracking. The returned facts are positive and in body order.
func (r *Rule) BodySupports(b Binding) []Fact {
	var out []Fact
	var walk func(l ast.Literal)
	walk = func(l ast.Literal) {
		if l.Kind != ast.LitAtom || l.Neg {
			return
		}
		t := make(tuple.Tuple, len(l.Atom.Args))
		for i, a := range l.Atom.Args {
			if a.IsVar() {
				t[i] = b[r.varIDs[a.Var]]
			} else {
				t[i] = a.Const
			}
		}
		out = append(out, Fact{Pred: l.Atom.Pred, Tuple: t})
	}
	for _, l := range r.Src.Body {
		walk(l)
	}
	return out
}

// ActiveDomain computes adom(P, I): the program's constants plus
// every value occurring in the instance, sorted by u.Compare and
// deduplicated.
func ActiveDomain(u *value.Universe, progConsts []value.Value, in *tuple.Instance) []value.Value {
	var all []value.Value
	all = append(all, progConsts...)
	if in != nil {
		all = in.ActiveDomain(all)
	}
	sort.Slice(all, func(i, j int) bool { return u.Compare(all[i], all[j]) < 0 })
	out := all[:0]
	var prev value.Value
	for i, v := range all {
		if i == 0 || v != prev {
			out = append(out, v)
			prev = v
		}
	}
	return out
}

// ProgramConsts returns adom(P) for a program.
func ProgramConsts(p *ast.Program) []value.Value { return p.Constants() }

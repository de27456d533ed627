package eval

import (
	"slices"

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
//
// The relations of every body predicate are resolved by name once,
// when the call starts: a relation that emit creates in ctx.In during
// the call is not visible to it (facts emit adds to an existing
// relation may or may not be, as with any cursor). The call reuses
// the rule's scratch (see scratch.go), so it allocates nothing once
// the scratch fits the rule.
func (r *Rule) Enumerate(ctx *Ctx, emit func(Binding) bool) {
	sc := r.take(ctx)
	steps, planned := r.planFor(ctx, sc)
	c := call{ctx: ctx, sc: sc, steps: steps, emit: emit}
	if ctx.Stats.Enabled() {
		sc.trace = planTrace{}
		if planned && ctx.PlanTrace && ctx.Stats.Tracing() {
			sc.counts = slices.Grow(sc.counts[:0], len(steps))[:len(steps)]
			clear(sc.counts)
			sc.trace.counts = sc.counts
		}
		c.tr = &sc.trace
	}
	sc.fit(steps)
	c.run(0)
	if tr := c.tr; tr != nil {
		ctx.Stats.ProbeBatch(tr.probes, tr.scans)
		if tr.counts != nil {
			r.tracePlan(&c)
		}
	}
	r.put(sc)
}

// call is one Enumerate call: its context, scratch, schedule and
// callback. It lives on Enumerate's stack, so the emit closure and
// the context do not escape through the reused scratch.
type call struct {
	ctx   *Ctx
	sc    *scratch
	steps []step
	emit  func(Binding) bool
	tr    *planTrace // nil when stats are off
}

// drain pulls the iterator dry, binding and recursing per candidate.
// skip, if non-nil, suppresses candidates it contains — the Aux
// overlay pass uses the In relation here so tuples present in both
// sources are visited exactly once. Returns false on early exit.
func (c *call) drain(st *step, it *tuple.Iterator, si int, skip *tuple.Relation) bool {
	b, tr := c.sc.b, c.tr
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
		if ok && !c.run(si+1) {
			return false
		}
	}
}

// fill writes the values of slots under b into buf, which is at least
// len(slots) long, and returns buf[:len(slots)].
func fill(buf []value.Value, slots []slot, b Binding) []value.Value {
	buf = buf[:len(slots)]
	for pos, s := range slots {
		buf[pos] = slotVal(s, b)
	}
	return buf
}

func (c *call) run(si int) bool {
	if si == len(c.steps) {
		return c.emit(c.sc.b)
	}
	ctx, sc, b := c.ctx, c.sc, c.sc.b
	st := &c.steps[si]
	switch st.kind {
	case stepMatch:
		src, rel := ctx.In, sc.rels[st.pslot].in
		if ctx.Delta != nil && st.litIndex == ctx.DeltaLit {
			src, rel = ctx.Delta, sc.delta
		}
		if rel != nil && rel.Arity() != st.arity {
			rel = nil
		}
		var aux *tuple.Relation
		if ctx.Aux != nil && src != ctx.Delta {
			if a := sc.rels[st.pslot].aux; a != nil && a.Arity() == st.arity {
				aux = a
			}
		}
		if rel == nil && aux == nil {
			return true // empty relation: no matches, keep going elsewhere
		}
		// The probe pattern for the bound positions lives in the
		// step's own buffer: the iterator keeps it while drained.
		var pattern []value.Value
		if st.mask != 0 {
			pattern = sc.pats[si][:st.arity]
			for pos, s := range st.slots {
				if st.mask&(1<<uint(pos)) != 0 {
					pattern[pos] = slotVal(s, b)
				}
			}
		}
		var it tuple.Iterator
		done := true
		if rel != nil {
			c.tr.probe(ctx.Scan)
			if ctx.Scan {
				rel.ScanIter(st.mask, tuple.Tuple(pattern), &it)
			} else {
				rel.ProbeIter(st.mask, tuple.Tuple(pattern), &it)
			}
			done = c.drain(st, &it, si, nil)
		}
		if done && aux != nil {
			c.tr.probe(ctx.Scan)
			if ctx.Scan {
				aux.ScanIter(st.mask, tuple.Tuple(pattern), &it)
			} else {
				aux.ProbeIter(st.mask, tuple.Tuple(pattern), &it)
			}
			done = c.drain(st, &it, si, rel)
		}
		for _, ab := range st.binds {
			b[ab.varID] = value.None
		}
		return done

	case stepNegCheck:
		rel := sc.rels[st.pslot].neg
		if rel != nil && rel.Contains(tuple.Tuple(fill(sc.pats[si], st.slots, b))) {
			return true // literal false under this valuation
		}
		return c.run(si + 1)

	case stepEqAssign:
		// left is the unbound variable side by construction.
		b[st.left.varID] = slotVal(st.right, b)
		ok := c.run(si + 1)
		b[st.left.varID] = value.None
		return ok

	case stepEqTest:
		l, rr := slotVal(st.left, b), slotVal(st.right, b)
		if (l == rr) == st.negEq {
			return true
		}
		return c.run(si + 1)

	case stepEnum:
		for _, v := range ctx.Adom {
			b[st.enumVar] = v
			if !c.run(si + 1) {
				b[st.enumVar] = value.None
				return false
			}
		}
		b[st.enumVar] = value.None
		return true

	case stepForall:
		if c.forallHolds(st, 0, sc.pats[si]) {
			return c.run(si + 1)
		}
		return true
	}
	return true
}

// forallHolds checks a ∀-literal: every extension of the current
// binding over the quantified variables (valuated in the active
// domain) must satisfy all inner checks. buf is the step's check
// buffer.
func (c *call) forallHolds(st *step, qi int, buf []value.Value) bool {
	sc, b := c.sc, c.sc.b
	if qi == len(st.forallVars) {
		for _, chk := range st.forallPlan {
			switch chk.kind {
			case stepMatch, stepNegCheck:
				rel := sc.rels[chk.pslot].in
				if chk.kind == stepNegCheck {
					rel = sc.rels[chk.pslot].neg
				}
				has := rel != nil && rel.Contains(tuple.Tuple(fill(buf, chk.slots, b)))
				if has == (chk.kind == stepNegCheck) {
					return false
				}
			case stepEqTest:
				l, rr := slotVal(chk.left, b), slotVal(chk.right, b)
				if (l == rr) == chk.negEq {
					return false
				}
			}
		}
		return true
	}
	id := st.forallVars[qi]
	saved := b[id]
	for _, v := range c.ctx.Adom {
		b[id] = v
		if !c.forallHolds(st, qi+1, buf) {
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

// HeadTuple writes the tuple of head literal i (an index into Heads)
// under binding b into buf, growing it when it is too short, and
// returns it. The result is valid until the caller's next HeadTuple
// call with the same buffer; Relation.Insert copies it, so a firing
// loop stages heads into an instance without allocating. Head-only
// variables read as value.None unless b carries invented values.
func (r *Rule) HeadTuple(i int, b Binding, buf []value.Value) []value.Value {
	slots := r.heads[i].Slots
	if buf == nil || cap(buf) < len(slots) {
		buf = make([]value.Value, len(slots))
	}
	return fill(buf, slots, b)
}

// HeadFacts materializes the head literals of the rule under binding
// b as fresh facts, for callers that keep them. invent supplies
// values for head-only variables; it is called once per head-only
// variable per call (so all head literals of one firing share the
// invented values). invent may be nil when the rule has no head-only
// variables.
func (r *Rule) HeadFacts(b Binding, invent func(varID int) value.Value) []Fact {
	if len(r.headOnly) > 0 {
		local := make(Binding, len(b))
		copy(local, b)
		for _, id := range r.headOnly {
			local[id] = invent(id)
		}
		b = local
	}
	out := make([]Fact, 0, len(r.heads))
	for i, h := range r.heads {
		if h.Bottom {
			out = append(out, Fact{Bottom: true})
			continue
		}
		out = append(out, Fact{Neg: h.Neg, Pred: h.Pred, Tuple: tuple.Tuple(r.HeadTuple(i, b, nil))})
	}
	return out
}

// StageNew stages the head facts of the firing b that in does not
// hold into dst, and counts them: derived facts are absent from in,
// re-derived ones present (a fact staged twice counts as derived
// twice, as it would against in). buf is the caller's head buffer,
// reused across firings; StageNew returns it, grown if a head needed
// more room.
func (r *Rule) StageNew(b Binding, in, dst *tuple.Instance, buf []value.Value) (derived, rederived int, _ []value.Value) {
	for i := range r.heads {
		buf = r.HeadTuple(i, b, buf)
		pred := r.heads[i].Pred
		if in.Has(pred, tuple.Tuple(buf)) {
			rederived++
			continue
		}
		dst.Insert(pred, tuple.Tuple(buf))
		derived++
	}
	return derived, rederived, buf
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
	warm := func(rel *tuple.Relation, st *step) {
		if rel != nil && rel.Arity() == st.arity {
			rel.BuildIndex(st.mask)
		}
	}
	for _, r := range rules {
		sc := r.take(ctx)
		steps, _ := r.planFor(ctx, sc)
		for i := range steps {
			st := &steps[i]
			pr := &sc.rels[st.pslot]
			switch st.kind {
			case stepMatch:
				if ctx.Delta != nil && st.litIndex == ctx.DeltaLit {
					warm(sc.delta, st)
					continue
				}
				warm(pr.in, st)
				warm(pr.aux, st)
			case stepNegCheck:
				// Negative literals are fully bound (Contains, no
				// index today), but warm their source anyway so a
				// future partial-mask check cannot reintroduce a
				// lazy build under workers.
				warm(pr.neg, st)
			}
		}
		r.put(sc)
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
// deduplicated. Occurrences are deduplicated by handle first (see
// distinct), so the comparator only orders distinct values.
func ActiveDomain(u *value.Universe, progConsts []value.Value, in *tuple.Instance) []value.Value {
	var all []value.Value
	all = append(all, progConsts...)
	if in != nil {
		all = in.ActiveDomain(all)
	}
	all = distinct(all, u.Len())
	slices.SortFunc(all, u.Compare)
	return all
}

// distinct drops repeated handles from vs in place, in no particular
// order, marking each handle of the universe's n values in a bitmap.
func distinct(vs []value.Value, n int) []value.Value {
	seen := make([]uint64, n/64+1)
	out := vs[:0]
	for _, v := range vs {
		w, bit := v>>6, uint64(1)<<(v&63)
		if seen[w]&bit == 0 {
			seen[w] |= bit
			out = append(out, v)
		}
	}
	return out
}

// ProgramConsts returns adom(P) for a program.
func ProgramConsts(p *ast.Program) []value.Value { return p.Constants() }

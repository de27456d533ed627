// Package stats is the engine-wide evaluation-statistics layer: a
// lightweight instrumentation substrate threaded through every engine
// of the repository (core inflationary/noninflationary/invent,
// declarative naive/semi-naive/stratified/well-founded, while,
// nondet, incr, magic, active).
//
// The central type is Collector. A nil *Collector is fully valid and
// turns every method into a cheap nil-check no-op, so engines thread
// it unconditionally and pay nothing when statistics are disabled
// (zero allocations on the hot path). Counter methods use atomic
// operations, so the rule-level parallel stage workers of
// internal/core may share one collector.
//
// The paper's narrative is stage-by-stage (Examples 4.1, 4.3, 5.4;
// the flip-flop cycle of Section 4.2), so the collector's unit of
// aggregation is the stage: engines bracket each application of the
// immediate consequence operator with BeginStage/EndStage and the
// collector snapshots its cumulative counters to derive per-stage
// figures. Per-rule firing counts make stage/firing totals usable as
// an empirical complexity probe (in the spirit of Grohe–Schwandtner's
// stage-count results and of semiring-style derivation accounting).
package stats

import (
	"encoding/json"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"unchained/internal/trace"
	"unchained/internal/tuple"
)

// maxStageEntries bounds the per-stage detail list. Engines like the
// Datalog¬¬ binary counter run 2^k stages (Theorem 4.8); totals keep
// counting past the cap, only the per-stage breakdown is truncated
// (Summary.StagesTruncated reports it).
const maxStageEntries = 1024

// RuleStats is the per-rule breakdown of a Summary.
type RuleStats struct {
	// Rule is the rule's source text (or a symbolic name for engines
	// without a textual rule form, e.g. active-database rules).
	Rule string `json:"rule"`
	// Firings counts body instantiations that emitted head facts.
	Firings uint64 `json:"firings"`
	// Derived counts emitted facts that were new at emission time.
	Derived uint64 `json:"derived"`
	// Rederived counts emitted facts filtered as already present.
	Rederived uint64 `json:"rederived"`
}

// StageStats is one stage (one application of the immediate
// consequence operator, one semi-naive round, one while-loop
// iteration, ...) of a Summary.
type StageStats struct {
	// Stage is the 1-based stage number.
	Stage int `json:"stage"`
	// Firings, Derived, Rederived, Retractions, Conflicts and
	// Invented are this stage's slice of the cumulative counters
	// documented on Summary.
	Firings     uint64 `json:"firings"`
	Derived     uint64 `json:"derived"`
	Rederived   uint64 `json:"rederived"`
	Retractions uint64 `json:"retractions,omitempty"`
	Conflicts   uint64 `json:"conflicts,omitempty"`
	Invented    uint64 `json:"invented,omitempty"`
	// Delta is the net instance change the engine reported for the
	// stage (facts actually inserted; may be negative for engines
	// with destructive updates, e.g. the while language).
	Delta int64 `json:"delta"`
	// WallNS is the stage's monotonic wall-clock time in nanoseconds.
	WallNS int64 `json:"wall_ns"`
}

// ShardStats is one shard worker's totals across all shard-parallel
// delta rounds of a run: how many rounds the shard participated in,
// its cumulative wall time inside round enumeration, and the facts it
// emitted toward the merge barrier. Comparing WallNS across shards is
// the skew diagnostic for parallel runs that fail to speed up.
type ShardStats struct {
	// Shard is the 0-based shard index.
	Shard int `json:"shard"`
	// Rounds counts sharded delta rounds this shard worked.
	Rounds uint64 `json:"rounds"`
	// WallNS is the shard's cumulative enumeration wall time.
	WallNS int64 `json:"wall_ns"`
	// Facts counts facts the shard emitted (pre-dedup).
	Facts uint64 `json:"facts"`
}

// Summary is the immutable outcome of a collection run, attached to
// engine results and rendered as JSON by the --stats CLI flag.
type Summary struct {
	// Engine names the engine that produced the summary.
	Engine string `json:"engine"`
	// Stages is the number of completed stages (EndStage calls). For
	// the deterministic forward-chaining engines it equals the
	// Result.Stages stage count (the final no-change confirmation
	// pass is not a stage).
	Stages int `json:"stages"`
	// Firings counts rule firings (body instantiations that emitted
	// head facts), including any final confirmation pass.
	Firings uint64 `json:"firings"`
	// Derived counts emitted facts that were new when emitted.
	Derived uint64 `json:"derived"`
	// Rederived counts emitted facts filtered as re-derivations.
	Rederived uint64 `json:"rederived"`
	// Retractions counts facts removed (Datalog¬¬ head negation,
	// nondet deletions, active-database delete actions).
	Retractions uint64 `json:"retractions"`
	// Conflicts counts simultaneous A/¬A inferences resolved by a
	// Datalog¬¬ conflict policy.
	Conflicts uint64 `json:"conflicts"`
	// Invented counts fresh values invented (Datalog¬new).
	Invented uint64 `json:"invented"`
	// IndexProbes and FullScans count relation matches answered by a
	// hash-index probe vs. a full scan (the Ctx.Scan ablation branch).
	IndexProbes uint64 `json:"index_probes"`
	FullScans   uint64 `json:"full_scans"`
	// WallNS is the total monotonic wall-clock time in nanoseconds.
	WallNS int64 `json:"wall_ns"`
	// ShardRounds counts semi-naive delta rounds evaluated
	// shard-parallel (Options.Shards > 1); ShardFactsMerged counts the
	// facts those rounds pushed through the merge barrier (before
	// deduplication). Zero for serial evaluation.
	ShardRounds      uint64 `json:"shard_rounds,omitempty"`
	ShardFactsMerged uint64 `json:"shard_facts_merged,omitempty"`
	// CowSnapshots, CowPromotions, CowTuplesCopied and
	// CowIndexesCarried expose the storage layer's copy-on-write
	// traffic for the run: instance snapshots taken, relations
	// promoted onto private copies by a post-snapshot write, arena
	// rows physically copied by those promotions (tombstoned rows not
	// yet compacted included), and warm posting-list indexes carried
	// across instead of rebuilt (see docs/STORAGE.md).
	CowSnapshots      uint64 `json:"cow_snapshots,omitempty"`
	CowPromotions     uint64 `json:"cow_promotions,omitempty"`
	CowTuplesCopied   uint64 `json:"cow_tuples_copied,omitempty"`
	CowIndexesCarried uint64 `json:"cow_indexes_carried,omitempty"`
	// PerShard is the per-shard-worker breakdown of the shard-parallel
	// rounds, sorted by shard index. Empty for serial evaluation.
	PerShard []ShardStats `json:"per_shard,omitempty"`
	// PerStage is the stage breakdown, capped at maxStageEntries.
	PerStage []StageStats `json:"per_stage,omitempty"`
	// StagesTruncated reports that PerStage hit the cap and later
	// stages are summarized only in the totals.
	StagesTruncated bool `json:"stages_truncated,omitempty"`
	// PerRule is the per-rule breakdown for engines that attribute
	// firings to rules.
	PerRule []RuleStats `json:"per_rule,omitempty"`
}

// JSON renders the summary as a single-line JSON object.
func (s *Summary) JSON() string {
	b, err := json.Marshal(s)
	if err != nil {
		return "{}" // unreachable: Summary has no unmarshalable fields
	}
	return string(b)
}

// ruleCounters is the per-rule accumulator (atomic: stage workers
// attribute firings concurrently).
type ruleCounters struct {
	firings, derived, rederived atomic.Uint64
}

// Collector accumulates evaluation statistics. The zero value is
// ready to use; a nil *Collector is valid and records nothing.
//
// Counter methods (Fired, Retracted, Conflict, Invented, Probe) are
// safe for concurrent use. Stage bracketing (Reset, BeginStage,
// EndStage, Summary) must stay on the engine's goroutine.
type Collector struct {
	engine    string
	ruleNames []string
	rules     []ruleCounters

	firings     atomic.Uint64
	derived     atomic.Uint64
	rederived   atomic.Uint64
	retractions atomic.Uint64
	conflicts   atomic.Uint64
	invented    atomic.Uint64
	probes      atomic.Uint64
	scans       atomic.Uint64
	shardRounds atomic.Uint64
	shardFacts  atomic.Uint64

	// shardWork accumulates per-shard-worker totals. Unlike the atomic
	// counters above it is mutex-guarded: shard workers report once per
	// round (not per firing), so contention is negligible.
	shardMu   sync.Mutex
	shardWork map[int]*ShardStats

	start      time.Time
	stageStart time.Time
	mark       counters
	stages     []StageStats
	stageCount int
	truncated  bool

	// Tracing state: the collector doubles as the span-stream
	// producer, because it is the one component every engine already
	// brackets its stages through. All fields below are touched only
	// from the engine's goroutine (like stage bracketing).
	tracer     trace.Tracer
	evalOpen   bool // begin-eval emitted, end-eval not yet
	stageOpen  bool // begin-stage emitted, end-stage not yet
	phaseStart time.Time
	ruleStart  time.Time
	ruleMark   counters

	// cow receives the storage layer's copy-on-write counters; engines
	// attach it to their working instance via Instance.SetCow(c.Cow()).
	cow tuple.Counters
}

// Cow returns the collector's copy-on-write counter sink, or nil on a
// nil collector (tuple.Counters methods are nil-safe, so the result
// can be attached to an Instance unconditionally).
func (c *Collector) Cow() *tuple.Counters {
	if c == nil {
		return nil
	}
	return &c.cow
}

// counters is a snapshot of the cumulative counters, used to compute
// per-stage slices by difference.
type counters struct {
	firings, derived, rederived, retractions, conflicts, invented uint64
}

// New returns an empty collector. Callers hand it to an engine via
// that engine's Options; the engine Resets it on entry and attaches
// Summary() to its result.
func New() *Collector { return &Collector{} }

// Enabled reports whether the collector records anything; it is the
// guard engines use before computing expensive method arguments.
func (c *Collector) Enabled() bool { return c != nil }

// SetTracer attaches a span-stream sink: from now on the collector
// mirrors its stage bracketing (and rule/phase/point calls) as
// trace.Events. Passing nil detaches. Must be called before the
// engine runs, from the engine's goroutine.
func (c *Collector) SetTracer(t trace.Tracer) {
	if c == nil {
		return
	}
	c.tracer = t
}

// Tracing reports whether a sink is attached.
func (c *Collector) Tracing() bool { return c != nil && c.tracer != nil }

// currentStage is the stage number events emitted right now belong
// to: the open stage if one is open, else the last completed one.
func (c *Collector) currentStage() int {
	if c.stageOpen {
		return c.stageCount + 1
	}
	return c.stageCount
}

// closeEval balances any dangling spans and emits the end-eval
// event. confirm marks a dangling stage as the engines' final
// no-change confirmation pass (the normal Summary path); Reset uses
// confirm=false when closing a run abandoned on an error path.
func (c *Collector) closeEval(confirm bool) {
	if c.tracer == nil || !c.evalOpen {
		return
	}
	cur := c.snapshot()
	if c.stageOpen {
		c.tracer.Emit(trace.Event{
			Ev: trace.EvEnd, Span: trace.SpanStage,
			Stage:       c.stageCount + 1,
			Firings:     cur.firings - c.mark.firings,
			Derived:     cur.derived - c.mark.derived,
			Rederived:   cur.rederived - c.mark.rederived,
			Retractions: cur.retractions - c.mark.retractions,
			Conflicts:   cur.conflicts - c.mark.conflicts,
			Invented:    cur.invented - c.mark.invented,
			DurNS:       time.Since(c.stageStart).Nanoseconds(),
			Confirm:     confirm,
		})
		c.stageOpen = false
	}
	c.tracer.Emit(trace.Event{
		Ev: trace.EvEnd, Span: trace.SpanEval,
		Engine:      c.engine,
		Stages:      c.stageCount,
		Firings:     cur.firings,
		Derived:     cur.derived,
		Rederived:   cur.rederived,
		Retractions: cur.retractions,
		Conflicts:   cur.conflicts,
		Invented:    cur.invented,
		DurNS:       time.Since(c.start).Nanoseconds(),
	})
	c.evalOpen = false
}

// Reset clears all counters and names the engine about to run.
// ruleNames, when non-nil, enables the per-rule breakdown (Fired's
// rule index refers into it). Called by top-level engine entry
// points, never by shared inner fixpoints.
func (c *Collector) Reset(engine string, ruleNames []string) {
	if c == nil {
		return
	}
	c.closeEval(false) // previous run abandoned without Summary
	c.engine = engine
	c.ruleNames = ruleNames
	c.rules = make([]ruleCounters, len(ruleNames))
	c.firings.Store(0)
	c.derived.Store(0)
	c.rederived.Store(0)
	c.retractions.Store(0)
	c.conflicts.Store(0)
	c.invented.Store(0)
	c.probes.Store(0)
	c.scans.Store(0)
	c.shardRounds.Store(0)
	c.shardFacts.Store(0)
	c.shardMu.Lock()
	c.shardWork = nil
	c.shardMu.Unlock()
	c.stages = nil
	c.stageCount = 0
	c.truncated = false
	c.cow.Reset()
	c.start = time.Now()
	c.stageStart = c.start
	c.mark = counters{}
	if c.tracer != nil {
		c.evalOpen = true
		c.stageOpen = false
		c.tracer.Emit(trace.Event{Ev: trace.EvBegin, Span: trace.SpanEval, Engine: engine})
	}
}

// SetEngine renames the engine without clearing counters; wrappers
// that delegate to an inner engine (incr materialization, magic
// rewriting) use it to relabel the accumulated run.
func (c *Collector) SetEngine(name string) {
	if c == nil {
		return
	}
	c.engine = name
}

func (c *Collector) snapshot() counters {
	return counters{
		firings:     c.firings.Load(),
		derived:     c.derived.Load(),
		rederived:   c.rederived.Load(),
		retractions: c.retractions.Load(),
		conflicts:   c.conflicts.Load(),
		invented:    c.invented.Load(),
	}
}

// BeginStage marks the start of a stage.
func (c *Collector) BeginStage() {
	if c == nil {
		return
	}
	c.stageStart = time.Now()
	c.mark = c.snapshot()
	if c.tracer != nil {
		c.stageOpen = true
		c.tracer.Emit(trace.Event{Ev: trace.EvBegin, Span: trace.SpanStage, Stage: c.stageCount + 1})
	}
}

// EndStage closes the stage opened by the last BeginStage, recording
// the engine-reported net instance change. Engines skip EndStage for
// the final no-change confirmation pass so that the stage count
// matches their Result's stage/round count; the confirmation pass's
// firings still land in the totals.
func (c *Collector) EndStage(delta int) {
	if c == nil {
		return
	}
	c.stageCount++
	if c.tracer == nil && len(c.stages) >= maxStageEntries {
		c.truncated = true
		return
	}
	cur := c.snapshot()
	st := StageStats{
		Stage:       c.stageCount,
		Firings:     cur.firings - c.mark.firings,
		Derived:     cur.derived - c.mark.derived,
		Rederived:   cur.rederived - c.mark.rederived,
		Retractions: cur.retractions - c.mark.retractions,
		Conflicts:   cur.conflicts - c.mark.conflicts,
		Invented:    cur.invented - c.mark.invented,
		Delta:       int64(delta),
		WallNS:      time.Since(c.stageStart).Nanoseconds(),
	}
	if c.tracer != nil {
		c.stageOpen = false
		c.tracer.Emit(trace.Event{
			Ev: trace.EvEnd, Span: trace.SpanStage,
			Stage:       st.Stage,
			Firings:     st.Firings,
			Derived:     st.Derived,
			Rederived:   st.Rederived,
			Retractions: st.Retractions,
			Conflicts:   st.Conflicts,
			Invented:    st.Invented,
			Delta:       st.Delta,
			DurNS:       st.WallNS,
		})
	}
	if len(c.stages) >= maxStageEntries {
		c.truncated = true
		return
	}
	c.stages = append(c.stages, st)
}

// BeginRule marks the start of one rule's enumeration within the
// open stage; only meaningful when tracing with per-rule attribution
// (Reset with ruleNames). Serial engines only — the parallel stage
// workers attribute firings via Fired alone.
func (c *Collector) BeginRule(rule int) {
	if c == nil || c.tracer == nil || rule < 0 || rule >= len(c.rules) {
		return
	}
	rc := &c.rules[rule]
	c.ruleStart = time.Now()
	c.ruleMark = counters{
		firings:   rc.firings.Load(),
		derived:   rc.derived.Load(),
		rederived: rc.rederived.Load(),
	}
}

// EndRule closes the BeginRule bracket, emitting a self-contained
// rule span — only when the rule fired at least once in the stage,
// bounding event volume on long runs.
func (c *Collector) EndRule(rule int) {
	if c == nil || c.tracer == nil || rule < 0 || rule >= len(c.rules) {
		return
	}
	rc := &c.rules[rule]
	f := rc.firings.Load() - c.ruleMark.firings
	if f == 0 {
		return
	}
	c.tracer.Emit(trace.Event{
		Ev: trace.EvSpan, Span: trace.SpanRule,
		Stage:     c.currentStage(),
		Rule:      c.ruleNames[rule],
		Firings:   f,
		Derived:   rc.derived.Load() - c.ruleMark.derived,
		Rederived: rc.rederived.Load() - c.ruleMark.rederived,
		DurNS:     time.Since(c.ruleStart).Nanoseconds(),
	})
}

// PlanSpan emits the query planner's chosen join order for one rule
// as a pre-closed span (rule: the head predicate label, desc: the
// join chain with estimated vs. actual cardinalities). Like the rest
// of the tracing surface it must be called from the engine's
// goroutine; eval gates emission on Ctx.PlanTrace, which engines set
// only on serial paths.
func (c *Collector) PlanSpan(rule, desc string) {
	if c == nil || c.tracer == nil {
		return
	}
	c.tracer.Emit(trace.Event{
		Ev: trace.EvSpan, Span: trace.SpanPlan,
		Stage: c.currentStage(),
		Rule:  rule,
		Name:  desc,
	})
}

// BeginPhase opens a stratum-level span grouping the stages of one
// stratum ("stratum") or one Γ application of the well-founded
// alternating fixpoint ("gamma"). n is 1-based.
func (c *Collector) BeginPhase(name string, n int) {
	if c == nil || c.tracer == nil {
		return
	}
	c.phaseStart = time.Now()
	c.tracer.Emit(trace.Event{Ev: trace.EvBegin, Span: trace.SpanStratum, Name: name, Stratum: n})
}

// EndPhase closes the BeginPhase bracket.
func (c *Collector) EndPhase(name string, n int) {
	if c == nil || c.tracer == nil {
		return
	}
	c.tracer.Emit(trace.Event{
		Ev: trace.EvEnd, Span: trace.SpanStratum,
		Name: name, Stratum: n,
		DurNS: time.Since(c.phaseStart).Nanoseconds(),
	})
}

// Fired records one rule firing that emitted derived new facts and
// rederived already-present facts. rule indexes into the Reset
// ruleNames (pass -1 for engines without per-rule attribution). Safe
// for concurrent use.
func (c *Collector) Fired(rule, derived, rederived int) {
	if c == nil {
		return
	}
	c.firings.Add(1)
	c.derived.Add(uint64(derived))
	c.rederived.Add(uint64(rederived))
	if rule >= 0 && rule < len(c.rules) {
		rc := &c.rules[rule]
		rc.firings.Add(1)
		rc.derived.Add(uint64(derived))
		rc.rederived.Add(uint64(rederived))
	}
}

// FiredBatch records firings rule firings at once (derived/rederived
// are the batch totals). Hot loops that fire many times per rule —
// the shard workers, the stage-parallel workers — accumulate locally
// and flush through here so the shared counters see one contended
// atomic add per batch instead of three per firing. Safe for
// concurrent use.
func (c *Collector) FiredBatch(rule int, firings, derived, rederived uint64) {
	if c == nil || (firings == 0 && derived == 0 && rederived == 0) {
		return
	}
	c.firings.Add(firings)
	c.derived.Add(derived)
	c.rederived.Add(rederived)
	if rule >= 0 && rule < len(c.rules) {
		rc := &c.rules[rule]
		rc.firings.Add(firings)
		rc.derived.Add(derived)
		rc.rederived.Add(rederived)
	}
}

// Retracted records n facts removed from the instance. Called from
// the engine's goroutine only (no engine retracts concurrently), so
// it may emit a trace point.
func (c *Collector) Retracted(n int) {
	if c == nil || n == 0 {
		return
	}
	c.retractions.Add(uint64(n))
	if c.tracer != nil {
		c.tracer.Emit(trace.Event{Ev: trace.EvPoint, Kind: trace.KindRetract, Stage: c.currentStage(), N: int64(n)})
	}
}

// Conflict records one simultaneous A/¬A inference resolved by a
// conflict policy. Engine goroutine only.
func (c *Collector) Conflict() {
	if c == nil {
		return
	}
	c.conflicts.Add(1)
	if c.tracer != nil {
		c.tracer.Emit(trace.Event{Ev: trace.EvPoint, Kind: trace.KindConflict, Stage: c.currentStage(), N: 1})
	}
}

// Invented records n freshly invented values. Engine goroutine only.
func (c *Collector) Invented(n int) {
	if c == nil || n == 0 {
		return
	}
	c.invented.Add(uint64(n))
	if c.tracer != nil {
		c.tracer.Emit(trace.Event{Ev: trace.EvPoint, Kind: trace.KindInvent, Stage: c.currentStage(), N: int64(n)})
	}
}

// ShardRound records one shard-parallel delta round that pushed
// merged facts (pre-dedup) through the merge barrier. Called from the
// engine's goroutine after the barrier closes.
func (c *Collector) ShardRound(merged int) {
	if c == nil {
		return
	}
	c.shardRounds.Add(1)
	c.shardFacts.Add(uint64(merged))
}

// ShardWork attributes one shard worker's round to its shard: the
// worker's enumeration wall time and the facts it emitted toward the
// merge barrier (pre-dedup). Safe for concurrent use — each worker
// calls it once per round just before exiting, so the mutex is far
// off the per-firing hot path.
func (c *Collector) ShardWork(shard int, wallNS int64, facts uint64) {
	if c == nil {
		return
	}
	c.shardMu.Lock()
	defer c.shardMu.Unlock()
	if c.shardWork == nil {
		c.shardWork = make(map[int]*ShardStats)
	}
	st := c.shardWork[shard]
	if st == nil {
		st = &ShardStats{Shard: shard}
		c.shardWork[shard] = st
	}
	st.Rounds++
	st.WallNS += wallNS
	st.Facts += facts
}

// Probe records one relation match: a full scan when scan is true, a
// hash-index probe otherwise. Called from the evaluator's hot match
// loop; a nil receiver costs one branch.
func (c *Collector) Probe(scan bool) {
	if c == nil {
		return
	}
	if scan {
		c.scans.Add(1)
	} else {
		c.probes.Add(1)
	}
}

// ProbeBatch records probes index probes and scans full scans at
// once. Enumerate accumulates per-call and flushes through here, so
// the shared counters cost one atomic add per rule enumeration
// instead of one per relation match (which contends badly across
// shard workers). Safe for concurrent use.
func (c *Collector) ProbeBatch(probes, scans uint64) {
	if c == nil {
		return
	}
	if probes != 0 {
		c.probes.Add(probes)
	}
	if scans != 0 {
		c.scans.Add(scans)
	}
}

// Summary freezes the current counters into an immutable Summary.
// Returns nil on a nil collector, so engines can assign it to their
// Result unconditionally.
func (c *Collector) Summary() *Summary {
	if c == nil {
		return nil
	}
	// Close the span stream: engines call Summary exactly once at the
	// end of a successful run. A still-open stage at this point is
	// the final no-change confirmation pass (engines skip EndStage
	// for it), closed here with Confirm so open/close stay balanced.
	c.closeEval(true)
	cur := c.snapshot()
	s := &Summary{
		Engine:           c.engine,
		Stages:           c.stageCount,
		Firings:          cur.firings,
		Derived:          cur.derived,
		Rederived:        cur.rederived,
		Retractions:      cur.retractions,
		Conflicts:        cur.conflicts,
		Invented:         cur.invented,
		IndexProbes:      c.probes.Load(),
		FullScans:        c.scans.Load(),
		ShardRounds:      c.shardRounds.Load(),
		ShardFactsMerged: c.shardFacts.Load(),
		WallNS:           time.Since(c.start).Nanoseconds(),
		PerStage:         append([]StageStats(nil), c.stages...),
		StagesTruncated:  c.truncated,
	}
	c.shardMu.Lock()
	for _, st := range c.shardWork {
		s.PerShard = append(s.PerShard, *st)
	}
	c.shardMu.Unlock()
	sort.Slice(s.PerShard, func(i, j int) bool { return s.PerShard[i].Shard < s.PerShard[j].Shard })
	cw := c.cow.Load()
	s.CowSnapshots = cw.Snapshots
	s.CowPromotions = cw.Promotions
	s.CowTuplesCopied = cw.TuplesCopied
	s.CowIndexesCarried = cw.IndexesCarried
	for i := range c.rules {
		rc := &c.rules[i]
		if f := rc.firings.Load(); f > 0 {
			s.PerRule = append(s.PerRule, RuleStats{
				Rule:      c.ruleNames[i],
				Firings:   f,
				Derived:   rc.derived.Load(),
				Rederived: rc.rederived.Load(),
			})
		}
	}
	return s
}

// SummaryJSON renders Summary() as a single-line JSON object — the
// one serialization of collector state shared by `-stats`, `/statsz`
// and `/metrics`. Returns "null" on a nil collector.
func (c *Collector) SummaryJSON() string {
	if c == nil {
		return "null"
	}
	return c.Summary().JSON()
}

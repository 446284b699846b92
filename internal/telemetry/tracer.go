// Hierarchical causal tracing: a Span tree rooted at study scope and
// propagated via context.Context through runner jobs, technique rounds,
// candidate evaluations, and individual SAT solves.
//
// The discipline mirrors Collector: everything is nil-safe. When no sink is
// installed, StartSpan returns nil, Child on a nil *Span returns nil, and
// every method on a nil *Span is a no-op branch — untraced runs pay one nil
// check per instrumentation point and allocate nothing.
//
// ID scheme: the registry allocates span IDs from one atomic counter; a root
// span's ID doubles as the trace ID, and children inherit it. IDs are
// rendered as lowercase hex in SpanRecord. Child is safe to call
// concurrently on one parent (runner workers open their job spans under one
// study span), but SetAttr/SetMetric/SetLane must only be called by the goroutine
// that owns the span, and only before End.
package telemetry

import (
	"context"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one node of a run's causal trace tree. The zero value is not
// useful; obtain spans from Registry.StartSpan or Span.Child.
type Span struct {
	reg       *Registry
	parentRef *Span

	trace  uint64
	id     uint64
	parent uint64 // 0 for roots
	kind   string
	start  time.Time
	lane   int // set via SetLane before the span is shared; inherited by children

	// childNs accumulates the durations of direct children, so self time is
	// duration - childNs at End.
	childNs atomic.Int64
	ended   atomic.Bool

	mu      sync.Mutex
	attrs   map[string]string
	metrics map[string]int64
}

// SeedSpanIDs offsets the registry's span-ID counter so that traces from
// several cooperating processes stay distinguishable after merging. Every
// process allocates IDs from 1 by default, so two worker processes would
// emit colliding trace IDs; a sharded-study worker calls SeedSpanIDs with a
// base derived from its worker identity before starting any span. Call once,
// before the first StartSpan.
func (r *Registry) SeedSpanIDs(base uint64) {
	if r == nil {
		return
	}
	r.spanIDs.Store(base)
}

// StartSpan opens a new root span (a new trace). It returns nil — and all
// downstream instrumentation stays dormant — unless a sink is installed.
func (r *Registry) StartSpan(kind string) *Span {
	if r == nil || !r.Tracing() {
		return nil
	}
	id := r.spanIDs.Add(1)
	return &Span{reg: r, trace: id, id: id, kind: kind, start: time.Now()}
}

// Child opens a sub-span. Safe for concurrent use on one parent; returns nil
// on a nil receiver so untraced call sites stay free.
func (s *Span) Child(kind string) *Span {
	if s == nil {
		return nil
	}
	return &Span{
		reg:       s.reg,
		parentRef: s,
		trace:     s.trace,
		id:        s.reg.spanIDs.Add(1),
		parent:    s.id,
		kind:      kind,
		start:     time.Now(),
		lane:      s.lane,
	}
}

// SetAttr attaches a string attribute (e.g. technique, spec, status).
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.attrs == nil {
		s.attrs = map[string]string{}
	}
	s.attrs[key] = value
	s.mu.Unlock()
}

// SetMetric attaches an integer metric (e.g. conflicts, candidates).
func (s *Span) SetMetric(key string, value int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.metrics == nil {
		s.metrics = map[string]int64{}
	}
	s.metrics[key] = value
	s.mu.Unlock()
}

// SetLane assigns the span (and, by inheritance, its future children) to a
// display lane — a worker index rendered as a Perfetto track. Call before
// handing the span to another goroutine.
func (s *Span) SetLane(lane int) {
	if s == nil {
		return
	}
	s.lane = lane
}

// Lane reads the display lane (0 for nil).
func (s *Span) Lane() int {
	if s == nil {
		return 0
	}
	return s.lane
}

// Kind reads the span kind ("" for nil).
func (s *Span) Kind() string {
	if s == nil {
		return ""
	}
	return s.kind
}

// TraceID is the hex trace ID shared by every span in the tree.
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return formatSpanID(s.trace)
}

// ID is the span's own hex ID.
func (s *Span) ID() string {
	if s == nil {
		return ""
	}
	return formatSpanID(s.id)
}

// ParentID is the parent's hex ID ("" for roots and nil spans).
func (s *Span) ParentID() string {
	if s == nil || s.parent == 0 {
		return ""
	}
	return formatSpanID(s.parent)
}

// End closes the span and emits its SpanRecord to the sink. Ending twice
// (or ending nil) is a no-op; attributes must not be touched afterwards.
func (s *Span) End() {
	if s == nil || !s.ended.CompareAndSwap(false, true) {
		return
	}
	dur := time.Since(s.start)
	rec := SpanRecord{
		Name:        s.kind,
		TraceID:     formatSpanID(s.trace),
		SpanID:      formatSpanID(s.id),
		ParentID:    s.ParentID(),
		Lane:        s.lane,
		StartUnixNs: s.reg.unixNs(s.start),
		DurationNs:  dur.Nanoseconds(),
	}
	s.mu.Lock()
	if len(s.attrs) > 0 {
		rec.Attrs = s.attrs
	}
	if len(s.metrics) > 0 {
		rec.Metrics = s.metrics
	}
	s.mu.Unlock()
	s.finish(dur)
	if sink := s.reg.currentSink(); sink != nil {
		sink.Record(rec)
	}
}

// closeQuiet closes a span whose record is emitted elsewhere (job spans: the
// runner's JobRecord is the emission). dur is the externally measured
// duration, so self-time accounting matches the published record.
func (s *Span) closeQuiet(dur time.Duration) {
	if s == nil || !s.ended.CompareAndSwap(false, true) {
		return
	}
	s.finish(dur)
}

// finish propagates this span's duration into the parent's child-time
// accumulator and adds its self time and one span to its kind's totals.
// Self time is the duration less the children that ended before it, which
// is what tracetool computes from the trace when every child ends first.
func (s *Span) finish(dur time.Duration) {
	ns := dur.Nanoseconds()
	if s.parentRef != nil {
		s.parentRef.childNs.Add(ns)
	}
	k := s.reg.spanKind(s.kind)
	k.selfNs.Add(max(ns-s.childNs.Load(), 0))
	k.count.Add(1)
}

// spanKind accumulates the finished spans of one kind: how many ended and
// their summed self time.
type spanKind struct {
	selfNs, count atomic.Int64
}

// spanKind returns kind's accumulator, creating it on the kind's first
// span. The common case is a read-locked map hit, which allocates nothing.
func (r *Registry) spanKind(kind string) *spanKind {
	r.kindMu.RLock()
	k := r.kinds[kind]
	r.kindMu.RUnlock()
	if k != nil {
		return k
	}
	r.kindMu.Lock()
	defer r.kindMu.Unlock()
	if k = r.kinds[kind]; k == nil {
		k = &spanKind{}
		r.kinds[kind] = k
	}
	return k
}

// spanKinds calls fn with every span kind's accumulated self time (ns) and
// span count, in no particular order.
func (r *Registry) spanKinds(fn func(kind string, selfNs, count int64)) {
	r.kindMu.RLock()
	defer r.kindMu.RUnlock()
	for kind, k := range r.kinds {
		fn(kind, k.selfNs.Load(), k.count.Load())
	}
}

func formatSpanID(id uint64) string { return strconv.FormatUint(id, 16) }

// spanCtxKey carries the current *Span through context.Context.
type spanCtxKey struct{}

// ContextWithSpan binds a span to the context. A nil span returns ctx
// unchanged, so untraced runs never pay for a context wrapper.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, spanCtxKey{}, s)
}

// SpanFromContext extracts the bound span (nil when absent).
func SpanFromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(spanCtxKey{}).(*Span)
	return s
}

// StartChild opens a child of the context's span and returns a context bound
// to it. With no span in ctx it returns (ctx, nil) — a free no-op.
func StartChild(ctx context.Context, kind string) (context.Context, *Span) {
	parent := SpanFromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	s := parent.Child(kind)
	return context.WithValue(ctx, spanCtxKey{}, s), s
}

// Discard is a SpanSink that drops every record. Installing it enables span
// construction (Registry.Tracing reports true) without writing anywhere:
// -metrics-addr without -trace installs it, so /metrics shows per-kind self
// time without a trace file.
var Discard SpanSink = discardSink{}

type discardSink struct{}

func (discardSink) Record(SpanRecord) {}

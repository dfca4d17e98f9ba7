package server

import (
	"fmt"
	"io"
	"regexp"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	aapsm "repro"
)

// metrics holds the daemon's counters: atomics the handlers bump, plus the
// per-route request counts and latencies under a mutex. The registry below
// declares how each one is exposed; no external client library — the text
// exposition format is stable and trivial to emit.
type metrics struct {
	start time.Time

	sessionsCreated atomic.Int64
	sessionsReused  atomic.Int64 // create requests coalesced onto a stored session
	sessionsEvicted struct{ lru, ttl, del atomic.Int64 }
	detects         atomic.Int64
	edits           atomic.Int64
	inflight        atomic.Int64
	draining        atomic.Bool

	// Persistence counters: snapshot writes (evict/flush/endpoint),
	// successful restores, and snapshots found unusable (corrupt,
	// version-skewed, or engine-configuration-mismatched). Restore latency
	// is a sum/count pair, nanoseconds summed atomically.
	snapshotWrites   atomic.Int64
	snapshotRestores atomic.Int64
	snapshotCorrupt  atomic.Int64
	restoreNanos     atomic.Int64

	// Robustness counters: failed snapshot writes, requests shed by
	// admission control (global and per-session), recovered panics (handler
	// scope = HTTP handler panics caught by the middleware; shard scope =
	// requests answered with a shard-panic quarantine error), and queue-wait
	// accounting for admitted requests that had to wait for a slot.
	snapshotWriteErrors atomic.Int64
	shedGlobal          atomic.Int64
	shedSession         atomic.Int64
	shedClientGone      atomic.Int64
	panicsHandler       atomic.Int64
	panicsShard         atomic.Int64
	queueWaitNanos      atomic.Int64
	queueWaitCount      atomic.Int64
	// recentWaitNanos is an EWMA of observed admission queue waits (admitted
	// waits and timed-out full-budget waits alike); shed responses derive
	// their Retry-After from it so clients back off proportionally to actual
	// saturation.
	recentWaitNanos atomic.Int64

	// Edit-coalescing telemetry: batches committed, items that rode in them,
	// items that actually shared a batch with another request, per-item
	// queue time and per-batch solve time (summary pairs), plus read-stage
	// requests that joined an identical read in flight.
	editBatches     atomic.Int64
	editBatchItems  atomic.Int64
	editsCoalesced  atomic.Int64
	batchQueueNanos atomic.Int64
	batchQueueCount atomic.Int64
	batchSolveNanos atomic.Int64
	readsCoalesced  atomic.Int64

	// Streaming telemetry.
	streamsActive   atomic.Int64
	streamsTotal    atomic.Int64
	streamsRejected atomic.Int64
	streamEvents    atomic.Int64

	// Incremental-pipeline reuse counters, accumulated per stage from the
	// work deltas of each served request: "reused" is work taken from a
	// session's cluster caches, "solved" is work actually performed. The
	// units differ per stage (detect: shards; drc: spacing pairs) — the ratio
	// within one stage is the interesting signal.
	reuse [stageCount]struct{ reused, solved atomic.Int64 }

	// Shared-solve counters, accumulated from the same per-request IncStats
	// deltas: clusters that took the result of an identical cluster solved
	// in the same detect, and the representatives whose result was taken.
	hierReused atomic.Int64
	hierSolved atomic.Int64

	mu       sync.Mutex
	requests map[requestKey]int64
	seconds  map[string]*latency
}

// Reuse-counter stages, in the order the metrics are emitted.
const (
	stageDetect = iota
	stageDRC
	stageCount
)

var stageNames = [stageCount]string{"detect", "drc"}

// observeReuse folds one request's incremental work profile delta into the
// per-stage reuse counters.
func (m *metrics) observeReuse(before, after aapsm.IncrementalStats) {
	add := func(stage int, reused, solved int) {
		if reused > 0 {
			m.reuse[stage].reused.Add(int64(reused))
		}
		if solved > 0 {
			m.reuse[stage].solved.Add(int64(solved))
		}
	}
	add(stageDetect, after.ShardsReused-before.ShardsReused, after.ShardsSolved-before.ShardsSolved)
	add(stageDRC, after.DRCPairsReused-before.DRCPairsReused, after.DRCPairsSolved-before.DRCPairsSolved)
	if d := after.HierClustersReused - before.HierClustersReused; d > 0 {
		m.hierReused.Add(int64(d))
	}
	if d := after.HierClustersSolved - before.HierClustersSolved; d > 0 {
		m.hierSolved.Add(int64(d))
	}
}

type requestKey struct {
	route string
	code  int
}

type latency struct {
	count int64
	sum   float64
}

func newMetrics(now time.Time) *metrics {
	return &metrics{
		start:    now,
		requests: make(map[requestKey]int64),
		seconds:  make(map[string]*latency),
	}
}

// observe records one finished request.
func (m *metrics) observe(route string, code int, d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.requests[requestKey{route, code}]++
	l := m.seconds[route]
	if l == nil {
		l = &latency{}
		m.seconds[route] = l
	}
	l.count++
	l.sum += d.Seconds()
}

// observeRestore records one successful snapshot restore's latency.
func (m *metrics) observeRestore(d time.Duration) {
	m.restoreNanos.Add(d.Nanoseconds())
}

// observeQueueWait records time an admitted request spent waiting for an
// admission slot (global or per-session).
func (m *metrics) observeQueueWait(d time.Duration) {
	m.queueWaitNanos.Add(d.Nanoseconds())
	m.queueWaitCount.Add(1)
	m.noteQueueWait(d)
}

// noteQueueWait folds one observed wait into the Retry-After EWMA without
// counting it as an admitted wait (shed paths use it directly).
func (m *metrics) noteQueueWait(d time.Duration) {
	n := d.Nanoseconds()
	for {
		old := m.recentWaitNanos.Load()
		// EWMA with alpha 1/4: responsive to a saturation ramp, stable
		// against one outlier.
		next := old + (n-old)/4
		if old == 0 {
			next = n
		}
		if m.recentWaitNanos.CompareAndSwap(old, next) {
			return
		}
	}
}

// retryAfterSecs derives the Retry-After header for shed responses from the
// recent queue-wait EWMA: rounded up to whole seconds, at least 1, capped at
// 30 so one pathological wait cannot park clients for minutes.
func (m *metrics) retryAfterSecs() int {
	const capSecs = 30
	nanos := m.recentWaitNanos.Load()
	secs := int((nanos + int64(time.Second) - 1) / int64(time.Second))
	if secs < 1 {
		return 1
	}
	if secs > capSecs {
		return capSecs
	}
	return secs
}

// observeBatch records one committed edit batch.
func (m *metrics) observeBatch(size int, solve time.Duration) {
	m.editBatches.Add(1)
	m.editBatchItems.Add(int64(size))
	if size > 1 {
		m.editsCoalesced.Add(int64(size))
	}
	m.batchSolveNanos.Add(solve.Nanoseconds())
}

// observeBatchQueue records one item's wait between arrival and its batch
// being collected.
func (m *metrics) observeBatchQueue(d time.Duration) {
	m.batchQueueNanos.Add(d.Nanoseconds())
	m.batchQueueCount.Add(1)
}

func (m *metrics) evicted(why evictReason) {
	switch why {
	case evictLRU:
		m.sessionsEvicted.lru.Add(1)
	case evictTTL:
		m.sessionsEvicted.ttl.Add(1)
	default:
		m.sessionsEvicted.del.Add(1)
	}
}

// metricKind is a Prometheus metric type: only the kinds the daemon emits.
type metricKind string

const (
	kindCounter metricKind = "counter"
	kindGauge   metricKind = "gauge"
	kindSummary metricKind = "summary"
)

// series is one sample of a metric family. Counters and gauges report n (a
// float gauge reports f); a summary reports f as its _sum and n as its
// _count.
type series struct {
	labels string // rendered `{key="value",...}`; "" when unlabelled
	n      int64
	f      float64
}

// family is one declared metric: its exposition header and the source of
// its samples.
type family struct {
	name, help string
	kind       metricKind
	float      bool // a gauge whose value is f, written to millisecond precision
	series     func() []series
}

// labelValue is one fixed label value of a family and its counter.
type labelValue struct {
	value string
	load  func() int64
}

var metricNameRE = regexp.MustCompile(`^[a-z][a-z0-9]*(_[a-z0-9]+)*$`)

// registry is the /metrics exposition: every family is declared once and
// written in declaration order. Declaration enforces the naming rules, so a
// bad name fails the first server construction (and every test) instead of
// reaching a scrape.
type registry struct {
	families []family
	names    map[string]bool
}

// add declares one family. It panics on a name without the aapsmd_ prefix,
// one that is not snake_case, a duplicate, or a _total suffix on anything
// but a counter (and a counter without one).
func (r *registry) add(f family) {
	switch {
	case !strings.HasPrefix(f.name, "aapsmd_"):
		panic(fmt.Sprintf("metric %s lacks the aapsmd_ prefix", f.name))
	case !metricNameRE.MatchString(f.name):
		panic(fmt.Sprintf("metric %s is not snake_case", f.name))
	case r.names[f.name]:
		panic(fmt.Sprintf("metric %s registered twice", f.name))
	case strings.HasSuffix(f.name, "_total") != (f.kind == kindCounter):
		panic(fmt.Sprintf("metric %s is a %s: _total is required on counters and reserved for them", f.name, f.kind))
	}
	if r.names == nil {
		r.names = make(map[string]bool)
	}
	r.names[f.name] = true
	r.families = append(r.families, f)
}

func (r *registry) counter(name, help string, load func() int64) {
	r.add(family{name: name, help: help, kind: kindCounter, series: func() []series { return []series{{n: load()}} }})
}

func (r *registry) gauge(name, help string, load func() int64) {
	r.add(family{name: name, help: help, kind: kindGauge, series: func() []series { return []series{{n: load()}} }})
}

// counters declares a counter family with one series per fixed value of a
// single label.
func (r *registry) counters(name, help, key string, values ...labelValue) {
	r.add(family{name: name, help: help, kind: kindCounter, series: func() []series {
		out := make([]series, len(values))
		for i, v := range values {
			out[i] = series{labels: fmt.Sprintf("{%s=%q}", key, v.value), n: v.load()}
		}
		return out
	}})
}

// summary declares an unlabelled summary over a nanosecond sum and a count.
func (r *registry) summary(name, help string, nanos, count *atomic.Int64) {
	r.add(family{name: name, help: help, kind: kindSummary, series: func() []series {
		return []series{{n: count.Load(), f: float64(nanos.Load()) / 1e9}}
	}})
}

// write emits every family in Prometheus text exposition format.
func (r *registry) write(w io.Writer) {
	for _, f := range r.families {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.kind)
		for _, s := range f.series() {
			switch {
			case f.kind == kindSummary:
				fmt.Fprintf(w, "%s_sum%s %.6f\n%s_count%s %d\n", f.name, s.labels, s.f, f.name, s.labels, s.n)
			case f.float:
				fmt.Fprintf(w, "%s%s %.3f\n", f.name, s.labels, s.f)
			default:
				fmt.Fprintf(w, "%s%s %d\n", f.name, s.labels, s.n)
			}
		}
	}
}

// b2i is 1 for true, 0 for false.
func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// declareMetrics is the daemon's one metric declaration list, in exposition
// order.
func (s *Server) declareMetrics() *registry {
	m := s.metrics
	r := &registry{}
	r.gauge("aapsmd_up", "Whether the daemon is serving (0 while draining).", func() int64 { return b2i(!m.draining.Load()) })
	r.add(family{name: "aapsmd_uptime_seconds", help: "Time since the server started.", kind: kindGauge, float: true,
		series: func() []series { return []series{{f: s.cfg.now().Sub(m.start).Seconds()}} }})
	r.gauge("aapsmd_sessions_live", "Sessions currently held in the store.", func() int64 { return int64(s.store.len()) })
	r.counter("aapsmd_sessions_created_total", "Sessions built from uploaded layouts.", m.sessionsCreated.Load)
	r.counter("aapsmd_sessions_reused_total", "Create requests coalesced onto a stored session by layout hash.", m.sessionsReused.Load)
	r.counters("aapsmd_sessions_evicted_total", "Sessions removed from the store.", "reason",
		labelValue{string(evictLRU), m.sessionsEvicted.lru.Load},
		labelValue{string(evictTTL), m.sessionsEvicted.ttl.Load},
		labelValue{string(evictExplicit), m.sessionsEvicted.del.Load})
	r.counter("aapsmd_detects_total", "Detect stage requests served.", m.detects.Load)
	r.counter("aapsmd_edits_total", "Edit operations applied to sessions.", m.edits.Load)
	r.gauge("aapsmd_inflight_requests", "Requests currently being served.", m.inflight.Load)
	r.counter("aapsmd_snapshot_write_total", "Session snapshots written to the persistence store.", m.snapshotWrites.Load)
	r.counter("aapsmd_snapshot_restore_total", "Sessions rehydrated from snapshots.", m.snapshotRestores.Load)
	r.counter("aapsmd_snapshot_corrupt_total", "Snapshots rejected as corrupt, version-skewed, or configuration-mismatched.", m.snapshotCorrupt.Load)
	r.summary("aapsmd_snapshot_restore_seconds", "Snapshot restore latency.", &m.restoreNanos, &m.snapshotRestores)
	r.gauge("aapsmd_ready", "Whether the readiness probe would pass (serving and persistence healthy).", func() int64 { return b2i(s.Ready()) })
	r.gauge("aapsmd_sessions_pinned", "Sessions pinned in memory because their snapshot could not be persisted.", func() int64 { return int64(s.store.pinnedCount()) })
	r.counter("aapsmd_snapshot_write_errors_total", "Snapshot writes that failed against the persistence store.", m.snapshotWriteErrors.Load)
	r.counters("aapsmd_requests_shed_total", "Requests rejected by admission control with 429 (client_gone = the client disconnected while queued; not an overload signal).", "scope",
		labelValue{"global", m.shedGlobal.Load},
		labelValue{"session", m.shedSession.Load},
		labelValue{"client_gone", m.shedClientGone.Load})
	r.gauge("aapsmd_retry_after_seconds", "Retry-After currently advertised on shed responses (EWMA of observed queue waits, rounded up, capped).", func() int64 { return int64(m.retryAfterSecs()) })
	r.counter("aapsmd_edit_batches_total", "Merged edit batches committed by the per-session coalescer.", m.editBatches.Load)
	r.counter("aapsmd_edit_batch_items_total", "Edit requests that rode in merged batches.", m.editBatchItems.Load)
	r.counter("aapsmd_edits_coalesced_total", "Edit requests that shared their batch (and its single re-pipeline) with at least one other request.", m.editsCoalesced.Load)
	r.summary("aapsmd_edit_batch_queue_seconds", "Per-item wait between arrival and batch collection (includes the coalescing linger).", &m.batchQueueNanos, &m.batchQueueCount)
	r.summary("aapsmd_edit_batch_solve_seconds", "Merged batch apply + shared re-pipeline time, per batch.", &m.batchSolveNanos, &m.editBatches)
	r.counter("aapsmd_reads_coalesced_total", "Read-stage requests served by an identical computation in flight at the same session generation.", m.readsCoalesced.Load)
	r.gauge("aapsmd_streams_active", "Streaming connections currently open.", m.streamsActive.Load)
	r.counter("aapsmd_streams_total", "Streaming connections accepted.", m.streamsTotal.Load)
	r.counter("aapsmd_streams_rejected_total", "Streaming connections shed at the MaxStreams bound.", m.streamsRejected.Load)
	r.counter("aapsmd_stream_events_total", "Events pushed over streaming connections.", m.streamEvents.Load)
	r.counters("aapsmd_panics_total", "Panics recovered without killing the daemon.", "scope",
		labelValue{"handler", m.panicsHandler.Load},
		labelValue{"shard", m.panicsShard.Load})
	r.summary("aapsmd_queue_wait_seconds", "Time admitted requests spent queued for an admission slot.", &m.queueWaitNanos, &m.queueWaitCount)
	var reused, solved []labelValue
	for i, name := range stageNames {
		reused = append(reused, labelValue{name, m.reuse[i].reused.Load})
		solved = append(solved, labelValue{name, m.reuse[i].solved.Load})
	}
	r.counters("aapsmd_incremental_reused_total", "Pipeline work units served from session cluster caches, by stage.", "stage", reused...)
	r.counters("aapsmd_incremental_solved_total", "Pipeline work units actually computed, by stage.", "stage", solved...)
	r.counter("aapsmd_hier_clusters_reused_total", "Conflict clusters that took the detection result of an identical cluster solved in the same detect.", m.hierReused.Load)
	r.counter("aapsmd_hier_clusters_solved_total", "Solved conflict clusters whose detection result at least one identical cluster took.", m.hierSolved.Load)
	r.add(family{name: "aapsmd_requests_total", help: "Finished HTTP requests.", kind: kindCounter, series: m.requestSeries})
	r.add(family{name: "aapsmd_request_seconds", help: "Request latency.", kind: kindSummary, series: m.latencySeries})
	return r
}

// requestSeries lists the finished-request counts by route and code.
func (m *metrics) requestSeries() []series {
	m.mu.Lock()
	defer m.mu.Unlock()
	keys := make([]requestKey, 0, len(m.requests))
	for k := range m.requests {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].route != keys[j].route {
			return keys[i].route < keys[j].route
		}
		return keys[i].code < keys[j].code
	})
	out := make([]series, len(keys))
	for i, k := range keys {
		out[i] = series{labels: fmt.Sprintf("{route=%q,code=\"%d\"}", k.route, k.code), n: m.requests[k]}
	}
	return out
}

// latencySeries lists the request latency summaries by route.
func (m *metrics) latencySeries() []series {
	m.mu.Lock()
	defer m.mu.Unlock()
	routes := make([]string, 0, len(m.seconds))
	for r := range m.seconds {
		routes = append(routes, r)
	}
	sort.Strings(routes)
	out := make([]series, len(routes))
	for i, r := range routes {
		l := m.seconds[r]
		out[i] = series{labels: fmt.Sprintf("{route=%q}", r), n: l.count, f: l.sum}
	}
	return out
}

package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"time"

	"broadway/internal/metrics"
	"broadway/internal/simtime"
	"broadway/internal/trace"
	"broadway/internal/webproxy"
)

// metricDef names a reported metric. BENCHMARK.json lists the same
// names (a test keeps the two in step).
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the hierarchy sees, reported by the
// untraced run. Each is defined, and never zero, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"achieved_rps", "req/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"cpu_ms_per_kreq", "ms", "lower"},
	{"rss_peak_mb", "MiB", "lower"},
	{"hit_ratio", "ratio", "higher"},
}

// perLayer are the traced run's metrics. The first endToEndInLayers are
// end-to-end quantities reported with the layers because they cannot
// carry a regression bound: the tail latencies swing with the shared
// machine's CPU steal far beyond any bound (see README.md), and the
// others read zero, or have no samples, on some workload.
var perLayer = []metricDef{
	{"latency_p90_ms", "ms", "lower"},
	{"latency_p99_ms", "ms", "lower"},
	{"error_ratio", "ratio", "lower"},
	{"origin_reqs_per_obj_hour", "req/obj/h", "lower"},
	{"stale_read_ratio", "ratio", "lower"},
	{"update_lag_p50_ms", "ms", "lower"},
	{"update_lag_p99_ms", "ms", "lower"},
	// Per-layer metrics proper.
	{"loadgen.late_p99_ms", "ms", "lower"},
	{"loadgen.hit.p50_ms", "ms", "lower"},
	{"loadgen.hit.p99_ms", "ms", "lower"},
	{"loadgen.hit.count", "count", "higher"},
	{"loadgen.miss.p50_ms", "ms", "lower"},
	{"loadgen.miss.p99_ms", "ms", "lower"},
	{"loadgen.miss.count", "count", "lower"},
	{"loadgen.notmod.p50_ms", "ms", "lower"},
	{"loadgen.notmod.count", "count", "higher"},
	{"loadgen.head.p50_ms", "ms", "lower"},
	{"loadgen.head.count", "count", "higher"},
	{"webproxy.leaf.serve_hit_us.p50", "us", "lower"},
	{"webproxy.leaf.serve_hit_us.p99", "us", "lower"},
	{"webproxy.leaf.serve_miss_self_us.p50", "us", "lower"},
	{"webproxy.leaf.serve_miss_self_us.p99", "us", "lower"},
	{"webproxy.leaf.upstream_us.p50", "us", "lower"},
	{"webproxy.leaf.upstream_us.p99", "us", "lower"},
	{"webproxy.leaf.upstream_per_kreq", "1/kreq", "lower"},
	{"webproxy.leaf.evictions_per_kreq", "1/kreq", "lower"},
	{"webproxy.leaf.resident_mb", "MiB", "lower"},
	{"webproxy.leaf.polls_per_obj_hour", "req/obj/h", "lower"},
	{"webproxy.leaf.poll_modified_ratio", "ratio", "higher"},
	{"webproxy.relay.serve_us.p50", "us", "lower"},
	{"webproxy.relay.serve_us.p99", "us", "lower"},
	{"webproxy.relay.polls_per_obj_hour.regular", "req/obj/h", "lower"},
	{"webproxy.relay.polls_per_obj_hour.triggered", "req/obj/h", "lower"},
	{"webproxy.relay.poll_modified_ratio", "ratio", "higher"},
	{"webproxy.relay.sched_overdue_ms.p99", "ms", "lower"},
	{"webproxy.relay.inflight_polls.max", "count", "lower"},
	{"push.install_lag_ms.p50", "ms", "lower"},
	{"push.install_lag_ms.p99", "ms", "lower"},
	{"push.applied_ratio", "ratio", "higher"},
	{"push.delta_share", "ratio", "higher"},
	{"push.fallbacks", "count", "lower"},
	{"push.wire_bytes_per_update", "B/update", "lower"},
	{"push.hub.publish_wait_ms", "ms", "lower"},
	{"push.hub.slow_kills", "count", "lower"},
	{"push.hub.resets", "count", "lower"},
	{"webserver.serve_us.p50", "us", "lower"},
	{"webserver.serve_us.p99", "us", "lower"},
	{"webserver.not_modified_ratio", "ratio", "higher"},
	{"webserver.set_us.p50", "us", "lower"},
	{"diskstore.promotions_per_kreq", "1/kreq", "lower"},
	{"diskstore.demotions_per_kreq", "1/kreq", "lower"},
	{"diskstore.pending_writes.max", "count", "lower"},
	{"diskstore.write_errors", "count", "lower"},
	{"core.relay.fidelity_dt", "ratio", "higher"},
	{"core.relay.fidelity_mt", "ratio", "higher"},
	{"core.relay.fidelity_dv", "ratio", "higher"},
	{"core.leaf.fidelity_dt", "ratio", "higher"},
	{"runtime.allocs_per_req", "allocs/req", "lower"},
	{"runtime.gc_cpu_fraction", "ratio", "lower"},
	{"runtime.heap_peak_mb", "MiB", "lower"},
	{"trace.overhead.latency_p50_ms", "ms", "lower"},
	{"trace.overhead.cpu_ms_per_kreq", "ms", "lower"},
	{"machine.steal_ratio", "ratio", "lower"},
}

// endToEndInLayers counts the end-to-end quantities at the head of
// perLayer.
const endToEndInLayers = 7

// value is one measured metric. n is the sample count behind a timing
// (0 with none means the metric has no samples on this workload; it is
// printed as "none" and carried as 0 in the JSON line, which needs a
// number).
type value struct {
	v    float64
	n    int
	none bool
}

func timing(d *dist, q float64) value {
	if len(d.xs) == 0 {
		return value{none: true}
	}
	return value{v: d.q(q), n: len(d.xs)}
}

func count(x float64) value { return value{v: x, n: -1} }

// agreement is one instrument check: the benchmark's outside count
// against the program's own counter.
type agreement struct {
	what             string
	outside, program uint64
}

// collectSpans merges the generator's client spans, links the trees and
// writes them out.
func (run *hostRun) collectSpans(clientPath string) error {
	tr := run.tr
	spans := tr.spans
	if f, err := os.Open(clientPath); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			var sp span
			if err := json.Unmarshal(sc.Bytes(), &sp); err != nil {
				f.Close()
				return fmt.Errorf("client span: %w", err)
			}
			sp.ID = tr.ids.Add(1)
			sp.Start -= tr.origin.UnixNano()
			sp.End -= tr.origin.UnixNano()
			spans = append(spans, sp)
		}
		f.Close()
		if err := sc.Err(); err != nil {
			return err
		}
	}
	// leaf.serve spans are children of the client request carrying the
	// same request id.
	client := map[int64]int64{}
	for i := range spans {
		if spans[i].Name == spanClient {
			client[spans[i].Req] = spans[i].ID
		}
	}
	for i := range spans {
		if spans[i].Name == spanLeafServe {
			spans[i].via = client[spans[i].Req]
		}
	}
	resolve(spans)
	tr.spans = spans
	return writeSpans(run.spansOut, spans)
}

// layerSpans returns the self times (µs) and durations of one span name.
func (run *hostRun) layerSpans(name string, keep func(*span) bool) (self, dur *dist) {
	self, dur = &dist{}, &dist{}
	for i := range run.tr.spans {
		sp := &run.tr.spans[i]
		if sp.Name == name && (keep == nil || keep(sp)) {
			self.add(float64(sp.Self) / 1e3)
			dur.add(float64(sp.End-sp.Start) / 1e3)
		}
	}
	return self, dur
}

// obsIn returns a copy of the observations with At in [from, to),
// sorted by time.
func obsIn(obs []webproxy.PollObservation, from, to time.Time) []webproxy.PollObservation {
	var out []webproxy.PollObservation
	for _, o := range obs {
		if !o.At.Before(from) && o.At.Before(to) {
			out = append(out, o)
		}
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].At.Before(out[b].At) })
	return out
}

// fidelity evaluates the paper's Eq. 14 for every object over the timed
// phase, from a proxy's refresh log and the updates the origin actually
// published. Every object holds revision 0 at t0 (no update precedes
// it), so each log starts with a synthetic fresh entry at offset 0.
func (run *hostRun) fidelity(obs []webproxy.PollObservation) (dt, mt, dv float64) {
	s := run.s
	horizon := run.snaps[1].at.Sub(run.t0)
	logs := map[string][]metrics.Refresh{}
	for _, o := range obsIn(obs, run.t0, run.snaps[1].at) {
		if o.Initial {
			continue
		}
		logs[o.Key] = append(logs[o.Key], metrics.Refresh{
			At: simtime.At(o.At.Sub(run.t0)), Modified: o.Modified,
			Value: o.Value, Triggered: o.Triggered || o.Pushed,
		})
	}
	traceOf := func(i int) (*trace.Trace, []metrics.Refresh) {
		o := &s.objects[i]
		tr := &trace.Trace{Name: o.path, Kind: trace.Temporal, Duration: horizon}
		if o.kind == kindQuote {
			tr.Kind = trace.Value
			tr.InitialValue = o.values[0]
		}
		for r := 1; r < o.revisions(); r++ {
			at := run.upd.setAt[i][r]
			if at.IsZero() || at.Sub(run.t0) > horizon {
				break
			}
			u := trace.Update{At: at.Sub(run.t0)}
			if o.kind == kindQuote {
				u.Value = o.values[r]
			}
			tr.Updates = append(tr.Updates, u)
		}
		first := metrics.Refresh{At: 0}
		if o.kind == kindQuote {
			first.Value = o.values[0]
		}
		return tr, append([]metrics.Refresh{first}, logs[o.key()]...)
	}
	var sumDt, sumMt, sumDv float64
	var nDt, nMt, nDv int
	for i := range s.objects {
		o := &s.objects[i]
		tr, log := traceOf(i)
		switch o.kind {
		case kindQuote:
			sumDv += metrics.EvaluateValue(tr, log, o.valueDelta, horizon).FidelityByTime
			nDv++
		default:
			sumDt += metrics.EvaluateTemporal(tr, log, o.delta, horizon).FidelityByTime
			nDt++
		}
		if o.kind == kindPage {
			trs := []*trace.Trace{tr}
			lgs := [][]metrics.Refresh{log}
			for _, m := range o.members {
				mtr, mlog := traceOf(m)
				trs = append(trs, mtr)
				lgs = append(lgs, mlog)
			}
			sumMt += metrics.EvaluateMutualTemporalGroup(trs, lgs, o.groupDelta, horizon).FidelityByTime
			nMt++
		}
	}
	avg := func(sum float64, n int) float64 {
		if n == 0 {
			return 1 // nothing to keep consistent: trivially faithful
		}
		return sum / float64(n)
	}
	return avg(sumDt, nDt), avg(sumMt, nMt), avg(sumDv, nDv)
}

// endToEndValues computes every end-to-end quantity over the timed
// phase, including those reported with the layers.
func (run *hostRun) endToEndValues() map[string]value {
	lg := run.lg.Phase
	a, z := run.snaps[0], run.snaps[1]
	hours := z.at.Sub(a.at).Hours()
	m := map[string]value{
		"setup_s":         {v: median(run.setups), n: len(run.setups)},
		"achieved_rps":    count(ratio(float64(lg.OK), lg.Seconds)),
		"error_ratio":     count(ratio(float64(lg.Failed), float64(lg.Attempted))),
		"latency_p50_ms":  {v: lg.P50WindowedMs, n: lg.Attempted},
		"latency_p90_ms":  {v: lg.P90WindowedMs, n: lg.Attempted},
		"latency_p99_ms":  {v: lg.P99WindowedMs, n: lg.Attempted},
		"cpu_ms_per_kreq": {v: run.windowedCPU(), n: phaseWindows},
		"rss_peak_mb":     {v: run.sm.rssMB.max(), n: len(run.sm.rssMB.xs)},
		"hit_ratio":       count(ratio(float64(lg.Hits), float64(lg.OK))),
		"origin_reqs_per_obj_hour": count(ratio(float64(z.origin.Polls-a.origin.Polls),
			float64(len(run.s.objects))*hours)),
		"stale_read_ratio":    count(ratio(float64(lg.Stale), float64(lg.OK))),
		"update_lag_p50_ms":   timing(&run.lag.samples, 0.50),
		"update_lag_p99_ms":   timing(&run.lag.samples, 0.99),
		"machine.steal_ratio": count(ratio(float64(z.steal-a.steal), float64(z.ticks-a.ticks))),
	}
	return m
}

// windowedCPU is the host's CPU milliseconds per 1000 successful
// responses, as the median over the phase's windows.
func (run *hostRun) windowedCPU() float64 {
	var per []float64
	for i, ok := range run.lg.Phase.WindowOK {
		if ok > 0 {
			per = append(per, ms(run.cpuMarks[i+1]-run.cpuMarks[i])/(float64(ok)/1000))
		}
	}
	return median(per)
}

// perLayerValues computes the per-layer metrics of a traced phase. The
// end-to-end quantities reported with the layers, and the runtime
// metrics (so the tracer's own allocations and collections do not
// count), come from the untraced phase plain; the tracing overhead is
// this phase against plain.
func (run *hostRun) perLayerValues(plain *hostRun, e2e map[string]value) map[string]value {
	s := run.s
	m := map[string]value{}
	for _, d := range perLayer[:endToEndInLayers] {
		m[d.name] = e2e[d.name]
	}
	ph := run.lg.Phase
	a, z := run.snaps[0], run.snaps[1]
	kreq := float64(ph.OK) / 1000
	hours := z.at.Sub(a.at).Hours()
	objs := float64(len(s.objects))

	m["loadgen.late_p99_ms"] = value{v: ph.LateP99ms, n: ph.Attempted}
	for _, c := range []string{"hit", "miss", "notmod", "head"} {
		cs, ok := ph.Classes[c]
		m["loadgen."+c+".count"] = count(float64(cs.Count))
		m["loadgen."+c+".p50_ms"] = value{v: cs.P50ms, n: cs.Count, none: !ok}
		m["loadgen."+c+".p99_ms"] = value{v: cs.P99ms, n: cs.Count, none: !ok}
	}

	hit := func(sp *span) bool { return sp.Cache == "HIT" || sp.Cache == "GRACE" }
	selfHit, _ := run.layerSpans(spanLeafServe, hit)
	selfMiss, _ := run.layerSpans(spanLeafServe, func(sp *span) bool { return !hit(sp) })
	_, leafUp := run.layerSpans(spanLeafUpstream, nil)
	relaySelf, _ := run.layerSpans(spanRelayServe, nil)
	_, originDur := run.layerSpans(spanOriginServe, nil)
	_, setDur := run.layerSpans(spanOriginSet, nil)
	m["webproxy.leaf.serve_hit_us.p50"] = timing(selfHit, 0.5)
	m["webproxy.leaf.serve_hit_us.p99"] = timing(selfHit, 0.99)
	m["webproxy.leaf.serve_miss_self_us.p50"] = timing(selfMiss, 0.5)
	m["webproxy.leaf.serve_miss_self_us.p99"] = timing(selfMiss, 0.99)
	m["webproxy.leaf.upstream_us.p50"] = timing(leafUp, 0.5)
	m["webproxy.leaf.upstream_us.p99"] = timing(leafUp, 0.99)
	m["webproxy.leaf.upstream_per_kreq"] = count(ratio(float64(len(leafUp.xs)), kreq))
	m["webproxy.leaf.evictions_per_kreq"] = count(ratio(float64(z.leafCache.Evictions-a.leafCache.Evictions), kreq))
	m["webproxy.leaf.resident_mb"] = count(float64(z.leafCache.ResidentBytes) / (1 << 20))
	m["webproxy.relay.serve_us.p50"] = timing(relaySelf, 0.5)
	m["webproxy.relay.serve_us.p99"] = timing(relaySelf, 0.99)
	m["webserver.serve_us.p50"] = timing(originDur, 0.5)
	m["webserver.serve_us.p99"] = timing(originDur, 0.99)
	m["webserver.set_us.p50"] = timing(setDur, 0.5)

	run.obs.mu.Lock()
	leafObs := obsIn(run.obs.leaf, a.at, z.at)
	relayObs := obsIn(run.obs.relay, a.at, z.at)
	allLeaf := append([]webproxy.PollObservation(nil), run.obs.leaf...)
	allRelay := append([]webproxy.PollObservation(nil), run.obs.relay...)
	run.obs.mu.Unlock()

	var leafPolls, leafMod, regular, triggered, relayMod float64
	for _, o := range leafObs {
		if !o.Initial && !o.Applied {
			leafPolls++
			if o.Modified {
				leafMod++
			}
		}
	}
	for _, o := range relayObs {
		if o.Initial {
			continue
		}
		if o.Triggered || o.Pushed {
			triggered++
		} else {
			regular++
		}
		if o.Modified {
			relayMod++
		}
	}
	m["webproxy.leaf.polls_per_obj_hour"] = count(ratio(leafPolls, objs*hours))
	m["webproxy.leaf.poll_modified_ratio"] = count(ratio(leafMod, leafPolls))
	m["webproxy.relay.polls_per_obj_hour.regular"] = count(ratio(regular, objs*hours))
	m["webproxy.relay.polls_per_obj_hour.triggered"] = count(ratio(triggered, objs*hours))
	m["webproxy.relay.poll_modified_ratio"] = count(ratio(relayMod, regular+triggered))
	m["webproxy.relay.sched_overdue_ms.p99"] = timing(&run.sm.overdueMs, 0.99)
	m["webproxy.relay.inflight_polls.max"] = count(run.sm.inflight.max())

	// Push install lag: a relay poll that found a new version, to the
	// leaf installing a pushed payload for the same key.
	modAt := map[string][]time.Time{}
	for _, o := range relayObs {
		if o.Modified && !o.Initial {
			modAt[o.Key] = append(modAt[o.Key], o.At)
		}
	}
	var install dist
	for _, o := range leafObs {
		if !o.Applied {
			continue
		}
		ts := modAt[o.Key]
		i := sort.Search(len(ts), func(i int) bool { return ts[i].After(o.At) })
		if i > 0 {
			install.add(ms(o.At.Sub(ts[i-1])))
		}
	}
	m["push.install_lag_ms.p50"] = timing(&install, 0.5)
	m["push.install_lag_ms.p99"] = timing(&install, 0.99)
	applied := float64(z.leafPush.ValueApplied - a.leafPush.ValueApplied)
	m["push.applied_ratio"] = count(ratio(applied, float64(z.leafPush.Events-a.leafPush.Events)))
	m["push.delta_share"] = count(ratio(float64(z.leafPush.DeltaApplied-a.leafPush.DeltaApplied), applied))
	m["push.fallbacks"] = count(float64(z.leafPush.ValueFallbacks - a.leafPush.ValueFallbacks))
	m["push.wire_bytes_per_update"] = count(ratio(float64(z.eventBytes-a.eventBytes), float64(z.sets-a.sets)))
	m["push.hub.publish_wait_ms"] = count(ms(z.relayHub.PublishWait - a.relayHub.PublishWait))
	m["push.hub.slow_kills"] = count(float64(z.relayHub.SlowKills - a.relayHub.SlowKills))
	m["push.hub.resets"] = count(float64(z.relayHub.Resets - a.relayHub.Resets))
	m["webserver.not_modified_ratio"] = count(ratio(float64(z.origin.NotModified-a.origin.NotModified), float64(z.origin.Polls-a.origin.Polls)))

	m["diskstore.promotions_per_kreq"] = count(ratio(float64(z.leafDisk.Promotions-a.leafDisk.Promotions), kreq))
	m["diskstore.demotions_per_kreq"] = count(ratio(float64(z.leafDisk.Demotions-a.leafDisk.Demotions), kreq))
	m["diskstore.pending_writes.max"] = count(run.sm.pendingDisk.max())
	m["diskstore.write_errors"] = count(float64(z.leafDisk.WriteErrors - a.leafDisk.WriteErrors))

	dt, mt, dv := run.fidelity(allRelay)
	leafDt, _, _ := run.fidelity(allLeaf)
	m["core.relay.fidelity_dt"] = count(dt)
	m["core.relay.fidelity_mt"] = count(mt)
	m["core.relay.fidelity_dv"] = count(dv)
	m["core.leaf.fidelity_dt"] = count(leafDt)

	pa, pz := plain.snaps[0], plain.snaps[1]
	m["runtime.allocs_per_req"] = count(ratio(float64(pz.allocs-pa.allocs), float64(plain.lg.Phase.OK)))
	m["runtime.gc_cpu_fraction"] = count(ratio(pz.gcCPU-pa.gcCPU, pz.totalCPU-pa.totalCPU))
	m["runtime.heap_peak_mb"] = value{v: plain.sm.heapMB.max(), n: len(plain.sm.heapMB.xs)}

	m["machine.steal_ratio"] = run.endToEndValues()["machine.steal_ratio"]
	m["trace.overhead.latency_p50_ms"] = count(ph.P50WindowedMs - plain.lg.Phase.P50WindowedMs)
	m["trace.overhead.cpu_ms_per_kreq"] = count(run.windowedCPU() - plain.windowedCPU())
	return m
}

// agreements compares the wrappers' counts with the program's own
// counters, read after the hierarchy quiesced.
func (run *hostRun) agreements() []agreement {
	c := run.tr.counts
	return []agreement{
		{"origin.serve spans = Origin.Stats().Polls", uint64(c[spanOriginServe].Load()), run.originPolls},
		{"relay.serve spans (non-event) = leaf.upstream spans", uint64(c[spanRelayServe].Load()), uint64(c[spanLeafUpstream].Load())},
		{"push.install points = leaf PushStats.ValueApplied", uint64(c[spanPushInstall].Load()), run.valueApplied},
	}
}

func finite(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return x
}

// report prints the human-readable report and, last, the JSON result
// line, for the untraced phase plain and, with -trace 1, the traced
// phase. It returns the process exit code.
func report(w io.Writer, plain, traced *hostRun) int {
	s, lg := plain.s, plain.lg
	fmt.Fprintf(w, "perfbench workload=%s seed=%d seconds=%g trace=%v\n", s.name, s.seed, s.seconds, traced != nil)
	fmt.Fprintf(w, "why: %s\n", workloadWhy[s.name])
	fmt.Fprintf(w, "topology: origin -> relay -> leaf in one host process, all traffic over loopback (127.0.0.1), not a real link\n")
	fmt.Fprintf(w, "load: separate generator process, open loop at %g req/s offered, %d connections, GOMAXPROCS %d; host GOMAXPROCS %d on %d CPUs\n",
		s.rate, lg.Conns, lg.Conns, runtime.GOMAXPROCS(0), runtime.NumCPU())
	fmt.Fprintf(w, "objects: %d; requests scheduled: %d; origin updates applied: %d\n", len(s.objects), len(s.reqs), plain.upd.sets.Load())
	if s.disk {
		fmt.Fprintf(w, "leaf disk tier: on, tmpfs=%v; leaf MaxBytes=%d\n", plain.tmpfs, s.leafMaxBytes)
	}
	fmt.Fprintf(w, "setup runs: %v s\n", plain.setups)

	e2e := plain.endToEndValues()
	correct := plain.checkPhase(w, "untraced phase")
	attempted, failed := lg.Phase.Attempted, lg.Phase.Failed
	if traced != nil {
		correct = traced.checkPhase(w, "traced phase") && correct
		attempted += traced.lg.Phase.Attempted
		failed += traced.lg.Phase.Failed
	}

	fmt.Fprintf(w, "end-to-end (untraced phase):\n")
	printValue := func(name, unit string, v value) {
		switch {
		case v.none:
			fmt.Fprintf(w, "  %-44s none (0 samples)\n", name)
		case v.n > 0:
			fmt.Fprintf(w, "  %-44s %.6g %s (n=%d)\n", name, v.v, unit, v.n)
		default:
			fmt.Fprintf(w, "  %-44s %.6g %s\n", name, v.v, unit)
		}
	}
	for _, d := range endToEnd {
		printValue(d.name, d.unit, e2e[d.name])
	}
	for _, d := range perLayer[:endToEndInLayers] {
		printValue(d.name, d.unit, e2e[d.name])
	}

	result := map[string]map[string]any{}
	emit := func(defs []metricDef, vals map[string]value) {
		for _, d := range defs {
			result[d.name] = map[string]any{"value": finite(vals[d.name].v), "unit": d.unit}
		}
	}
	if traced != nil {
		layers := traced.perLayerValues(plain, e2e)
		fmt.Fprintf(w, "per-layer (traced phase; runtime.* from the untraced phase):\n")
		for _, d := range perLayer[endToEndInLayers:] {
			printValue(d.name, d.unit, layers[d.name])
		}
		fmt.Fprintf(w, "tracing overhead (traced phase minus untraced phase, same seed, fresh hierarchies): latency_p50 %+.4f ms (%.4f -> %.4f), cpu_ms_per_kreq %+.4f (%.4f -> %.4f)\n",
			layers["trace.overhead.latency_p50_ms"].v, lg.Phase.P50WindowedMs, traced.lg.Phase.P50WindowedMs,
			layers["trace.overhead.cpu_ms_per_kreq"].v, plain.windowedCPU(), traced.windowedCPU())
		traced.printSelfTimes(w)
		fmt.Fprintf(w, "instrument agreement (lifetime counts after quiescing):\n")
		for _, ag := range traced.agreements() {
			status := "ok"
			if ag.outside != ag.program {
				status = "MISMATCH"
				correct = false
			}
			fmt.Fprintf(w, "  %-55s %d vs %d %s\n", ag.what, ag.outside, ag.program, status)
		}
		fmt.Fprintf(w, "spans written to %s\n", traced.spansOut)
		emit(perLayer, layers)
	} else {
		emit(endToEnd, e2e)
	}
	line, _ := json.Marshal(map[string]any{
		"correct":   correct,
		"attempted": attempted,
		"failed":    failed,
		"metrics":   result,
	})
	fmt.Fprintf(w, "%s\n", line)
	if !correct {
		return 1
	}
	return 0
}

// checkPhase prints one phase's verifier verdict, generator lateness and
// CPU steal, and reports whether the phase is valid: no verifier failure
// and a generator that kept to its schedule.
func (run *hostRun) checkPhase(w io.Writer, label string) bool {
	ph := run.lg.Phase
	ok := ph.VerifierFailures == 0
	fmt.Fprintf(w, "%s verifier: attempted=%d ok=%d failed=%d verifier_failures=%d failures=%v\n",
		label, ph.Attempted, ph.OK, ph.Failed, ph.VerifierFailures, ph.Failures)
	fmt.Fprintf(w, "%s generator: late_p50=%.3f ms late_p99=%.3f ms (limit %v); latency p99 over the whole phase %.3f ms\n",
		label, ph.LateP50ms, ph.LateP99ms, maxLateP99, ph.P99ms)
	fmt.Fprintf(w, "%s latency p99 by %d windows: %.3f ms\n", label, phaseWindows, ph.WindowP99ms)
	fmt.Fprintf(w, "%s machine: %.1f%% of all CPU time was stolen by the hypervisor (wall-clock latencies stretch with it)\n",
		label, 100*run.endToEndValues()["machine.steal_ratio"].v)
	if ph.LateP99ms > ms(maxLateP99) {
		fmt.Fprintf(w, "INVALID %s: the load generator fell behind its schedule; it measured the generator, not the system\n", label)
		ok = false
	}
	return ok
}

// printSelfTimes prints the per-span self-time table.
func (run *hostRun) printSelfTimes(w io.Writer) {
	fmt.Fprintf(w, "self time by span (traced phase):\n")
	fmt.Fprintf(w, "  %-16s %8s %12s %12s %12s\n", "span", "count", "self_p50_us", "self_p99_us", "self_total_ms")
	names := append([]string{spanClient}, hostSpanNames...)
	for _, n := range names {
		self, _ := run.layerSpans(n, nil)
		total := 0.0
		for _, x := range self.xs {
			total += x
		}
		fmt.Fprintf(w, "  %-16s %8d %12.1f %12.1f %12.1f\n", n, len(self.xs), finite(self.q(0.5)), finite(self.q(0.99)), total/1e3)
	}
	roots := 0
	for i := range run.tr.spans {
		if n := run.tr.spans[i].Name; run.tr.spans[i].Parent == 0 && (n == spanLeafUpstream || n == spanRelayUpstream) {
			roots++
		}
	}
	fmt.Fprintf(w, "  background fetches (upstream spans outside any serve span): %d\n", roots)
}

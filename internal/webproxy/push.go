package webproxy

import (
	"net/http"
	"net/url"
	"sort"
	"strings"
	"time"

	"broadway/internal/core"
	"broadway/internal/push"
)

// This file is the proxy side of the hybrid push–pull channel: the
// subscription manager that reconciles origin-driven invalidations with
// the TTR refresh schedule.
//
// The reconciliation rules are:
//
//   - A pushed invalidation for a resident object converts into an
//     immediate "pushed" job routed through the object's group-affinity
//     worker — the same path as a mutual-consistency triggered poll — so
//     MutualTimeController state stays single-threaded per group. With
//     Config.PushValues a payload-carrying event is installed directly
//     (digest-verified, byte-ledger-charged; see applyPushedValue) with
//     no origin request; otherwise — or when the payload cannot be
//     installed — the job polls: it revalidates via If-Modified-Since
//     and, when it confirms an update, runs the §3.2 group triggering
//     exactly as a scheduled poll would. Neither form disturbs the
//     object's regular TTR schedule or feeds its policy (pushes reveal
//     the origin's churn, not the polling frequency's fitness).
//   - While the channel is healthy, regular TTR polls are stretched by
//     Config.PushStretch (clamped to the TTR upper bound): push carries
//     the freshness burden, polling becomes a safety net. The
//     unstretched instant is remembered per entry.
//   - On disconnect the proxy falls back to pure paper-mode polling: the
//     catch-up sweep pulls every stretched schedule entry back to its
//     unstretched instant (immediately, if that instant already passed),
//     so no object's Δt guarantee is ever widened beyond what pure
//     polling would have delivered. Reconnects resume stretching; a
//     reconnect whose replay gap exceeded the origin's buffer (hello
//     Reset) also runs the sweep, because events were irrecoverably
//     missed while the proxy believed the channel healthy.

// newPushSubscriber wires the proxy's callbacks into a subscriber for
// cfg.PushURL.
func (p *Proxy) newPushSubscriber() (*push.Subscriber, error) {
	payloadCap := 0
	if p.cfg.PushValues {
		payloadCap = p.cfg.PushPayloadCap
	}
	scfg := push.SubscriberConfig{
		URL: p.cfg.PushURL.String(),
		// The proxy's upstream client is unusable here: its global
		// Timeout would kill the long-lived stream.
		Client:           &http.Client{},
		OnEvent:          p.handlePushEvent,
		OnConnect:        p.handlePushConnect,
		OnDisconnect:     p.handlePushDisconnect,
		OnFrameLoss:      p.handlePushFrameLoss,
		BackoffMin:       p.cfg.PushBackoffMin,
		BackoffMax:       p.cfg.PushBackoffMax,
		HeartbeatTimeout: p.cfg.PushHeartbeatTimeout,
		PayloadCap:       payloadCap,
	}
	if p.cfg.PushInterest {
		scfg.Interest = p.declaredInterest
	}
	if p.cfg.PushValues {
		scfg.Held = p.heldDigests
	}
	return push.NewSubscriber(scfg)
}

// heldAdvertiseMax bounds the held-digest terms advertised on connect
// (mirroring the server-side per-stream cap): the largest bodies are
// the ones whose deltas save the most, so the advertisement is the
// top residents by size, not an arbitrary slice of the store.
const heldAdvertiseMax = 64

// heldDigests is the Held hook: the body digests this proxy holds,
// advertised at (re)connect so the upstream can open matching updates
// on the delta rung. Evaluated per connection attempt — a reconnect
// after churn advertises the current residency, never a stale snapshot.
func (p *Proxy) heldDigests() []push.HeldDigest {
	var cands []*entry
	for i := range p.store.shards {
		sh := &p.store.shards[i]
		sh.mu.RLock()
		for _, e := range sh.entries {
			cands = append(cands, e)
		}
		sh.mu.RUnlock()
	}
	sort.Slice(cands, func(i, j int) bool {
		return cands[i].size.Load() > cands[j].size.Load()
	})
	if len(cands) > heldAdvertiseMax {
		cands = cands[:heldAdvertiseMax]
	}
	held := make([]push.HeldDigest, 0, len(cands))
	for _, e := range cands {
		if e.evicted.Load() || e.unpushable {
			continue
		}
		e.mu.RLock()
		d := e.bodyDigest
		if d == "" && len(e.body) > 0 {
			d = push.DigestOf(e.body)
		}
		e.mu.RUnlock()
		if d != "" {
			held = append(held, push.HeldDigest{Key: e.key, Digest: d})
		}
	}
	return held
}

// declaredInterest computes the interest set the subscriber declares on
// its next (re)connect: the configured static seeds, one first-path-
// segment prefix per resident object, and the sticky union of every
// downstream subscriber's own declaration. The closure runs per
// connection attempt, so a bounce (see Bounce) is all it takes to
// renegotiate. An empty result encodes as no query constraints — the
// upstream delivers everything — so filtering fails open, never closed.
func (p *Proxy) declaredInterest() push.InterestSet {
	prefixes := append([]string(nil), p.cfg.PushPrefixes...)
	for i := range p.store.shards {
		sh := &p.store.shards[i]
		sh.mu.RLock()
		for key := range sh.entries {
			prefixes = append(prefixes, residentPrefix(key))
		}
		sh.mu.RUnlock()
	}
	set := push.NewInterest(prefixes, p.cfg.PushGroups)
	p.downMu.Lock()
	down := p.downstream
	p.downMu.Unlock()
	return set.Union(down)
}

// residentPrefix maps a cache key to the interest prefix declared for
// it: its first path segment (slash included, so "/news/" never drags
// in "/newsy"). Folding siblings under one term keeps a large cache
// from exploding the declaration past the term bounds — overflow would
// widen it to match-all and forfeit filtering entirely. Query-bearing
// keys declare their path part; such objects are unpushable anyway
// (events are path-granular), so the term is only ever harmlessly wide.
func residentPrefix(key string) string {
	if len(key) > 1 && key[0] == '/' {
		if i := strings.IndexByte(key[1:], '/'); i >= 0 {
			return key[:i+2]
		}
	}
	if i := strings.IndexByte(key, '?'); i >= 0 {
		return key[:i]
	}
	return key
}

// noteDownstreamInterest folds a downstream subscriber's declared
// interest into the sticky union this proxy declares upstream (it is
// the relay hub's OnSubscribe hook). When the live upstream declaration
// does not cover the newcomer, the stream is bounced: the reconnect
// re-runs declaredInterest with the union folded in, so the subtree's
// objects are announced through this proxy from then on. Until that
// reconnect lands the child is no worse off than under a disconnected
// parent — its own stretch gate keeps uncovered objects polling.
func (p *Proxy) noteDownstreamInterest(is push.InterestSet) {
	if p.sub == nil || is.IsEmpty() {
		return
	}
	p.downMu.Lock()
	p.downstream = p.downstream.Union(is)
	p.downMu.Unlock()
	if !p.sub.DeclaredInterest().Covers(is) {
		p.sub.Bounce()
	}
}

// handlePushEvent converts an update notification into an immediate
// pushed job for the named object, if it is resident: a value-carrying
// event installs its payload directly on the object's affinity worker
// (see applyPushedValue), anything else runs today's pushed poll.
// Events for non-resident objects are dropped — the proxy only ever
// pays refresh traffic for objects it actually caches — after landing
// on (or, failing that, marking stale) a demoted object's disk record,
// so its next promotion never serves the superseded copy. Back-to-back
// events for one object coalesce onto a single queued job, with the
// entry's pendingPush slot always holding the NEWEST event so a
// coalesced burst installs the latest body, never a dropped
// predecessor's.
func (p *Proxy) handlePushEvent(ev push.Event) {
	p.pushEvents.Add(1)
	// The seq store is deferred so the job is enqueued (and counted in
	// InFlightPolls) before an observer waiting on PushStats().LastSeq
	// can conclude the event was handled.
	defer p.pushSeq.Store(ev.Seq)
	if ev.Kind != push.KindUpdate || ev.Key == "" {
		return
	}
	// Pass-through relay before the residency check: a child proxy may
	// cache objects this proxy does not. The payload rides along, so a
	// value-negotiated leaf installs it with zero polls against us.
	p.relayUpstreamEvent(ev)
	e := p.lookup(ev.Key)
	if e == nil || e.evicted.Load() {
		if p.applyPushedToDisk(ev) {
			return // demoted object: its disk record absorbed the update
		}
		// A demoted object's record, or the response of an admission
		// fetch in flight, now predates the update: mark it so the next
		// promotion validates and the admission polls once more. An
		// admission or promotion that raced this event has made the
		// object resident again; handle it as such.
		if e = p.markStale(eventCacheKey(ev.Key), ev.ModTime); e == nil {
			p.pushDropped.Add(1)
			return
		}
	}
	p.queuePushed(e, &ev)
}

// queuePushed hands e a pushed job for ev, coalescing onto the job
// already queued for it, if any.
func (p *Proxy) queuePushed(e *entry, ev *push.Event) {
	if p.cfg.PushValues {
		// Only the apply path reads pendingPush; an invalidation-only
		// proxy keeps its allocation-free event handling.
		e.pendingPush.Store(ev)
	}
	if !e.pushQueued.CompareAndSwap(false, true) {
		return // a pushed job is already queued for this object
	}
	p.pushPolls.Add(1)
	p.pending.Add(1)
	p.workerFor(e).enqueue(job{e: e, kind: core.PollPushed})
}

// applyPushedValue installs a pushed event's payload directly into the
// cache — the value-carrying fast path: one message from the origin,
// zero confirmation polls. It runs on the entry's affinity worker (the
// same serialization domain as every poll of the object and its group),
// so body swaps, controller observations, and §3.2 triggering stay
// single-threaded exactly as they are for polls.
//
// It returns false when the payload cannot be installed — no payload on
// the event (a stripped or pure-invalidation frame), a digest mismatch
// (corruption somewhere along the relay chain), or a body that alone
// overflows MaxBytes (installing it would immediately evict the object)
// — and the caller degrades to the pushed confirmation poll, the next
// rung of the ladder. The Δ guarantee never rests on this path.
//
// A true return with no work done means the event was a duplicate (a
// relay's pass-through plus its confirmation, or a replayed frame): the
// cached copy already carries this or a newer modification instant, so
// neither a poll nor a re-install is owed.
func (p *Proxy) applyPushedValue(e *entry, ev *push.Event) bool {
	if !p.cfg.PushValues || !ev.HasBody {
		return false
	}
	if e.evicted.Load() {
		// Let the poll path's eviction check dispose of the job; nothing
		// may be installed for (or polled on behalf of) an evicted entry.
		return false
	}
	body := ev.Body
	wasDelta := false
	if ev.BaseDigest != "" && ev.DeltaCodec != 0 {
		// The body is a delta against a base the sender believes we
		// hold — the cheapest rung of the ladder. Reconstruct and verify
		// before anything is installed; any mismatch (a forged or stale
		// base, a hostile delta stream, a result that does not hash to
		// the frame's digest) falls through to the confirmation poll.
		full, ok := p.resolveDelta(e, ev)
		if !ok {
			return false
		}
		body = full
		wasDelta = true
	} else if push.DigestOf(ev.Body) != ev.Digest {
		return false
	}
	size := entrySize(e.key, body)
	if p.cfg.MaxBytes >= 0 && size > p.cfg.MaxBytes {
		// An object this size is refused at admission and self-evicts on
		// refresh growth; let the pushed poll run those established
		// unwind rules rather than duplicating them here.
		return false
	}
	now := p.cfg.Clock()

	e.mu.Lock()
	if e.hasLastMod && !ev.ModTime.IsZero() && !ev.ModTime.After(e.lastMod) {
		// Already at (or past) this version — origins guarantee strictly
		// increasing modification times, so an instant at or before the
		// cached one is a relay duplicate or a replayed frame. Nothing
		// to install, nothing to poll.
		e.mu.Unlock()
		return true
	}
	prev := core.ObjectState{ValidatedAt: p.toSim(e.validatedAt), Value: e.value, Fetched: true}
	obs := core.Observation{Modified: true}
	if !ev.ModTime.IsZero() {
		obs.LastModified = p.toSim(ev.ModTime)
		obs.HasLastModified = true
	}
	e.failures = 0
	e.validatedAt = now
	e.body = body
	e.bodyDigest = ev.Digest // verified above: DigestOf(body)
	if ev.ContentType != "" {
		e.contentType = ev.ContentType
	}
	if !ev.ModTime.IsZero() {
		e.lastMod = ev.ModTime
		e.hasLastMod = true
	}
	e.renderHeaders()
	if e.isValue {
		if v, ok := parseValueBody(body); ok {
			e.value = v
		}
	}
	obs.HasValue, obs.Value = e.isValue, e.value
	step := core.Refresh(e.policy, prev, core.PollPushed, p.toSim(now), obs)
	paired := e.paired
	e.mu.Unlock()

	e.applied.Add(1)
	p.pushApplied.Add(1)
	if wasDelta {
		p.pushDeltaApplied.Add(1)
	}

	// The downstream republication carries the reconstructed full body
	// (a delta frame's raw bytes would be useless to a leaf that missed
	// the base) plus the upstream delta as a sidecar: our children track
	// the same origin body history we do, so the base that matched here
	// matches there, and one origin delta feeds the whole subtree
	// without re-encoding.
	out := *ev
	if wasDelta {
		out.Body = body
		out.DeltaBody = ev.Body
		p.pushDeltaRebased.Add(1)
	}

	// The shared post-refresh bookkeeping: byte-ledger re-charge with
	// budget re-enforcement (the single-object overflow case was refused
	// above), the downstream republication AFTER the body swap — payload
	// included, so a value-negotiated leaf installs it directly and a
	// polling leaf that fetches on it finds the fresh copy, never the
	// stale one the pass-through frame raced — the eviction-token-
	// guarded controller observation, and the §3.2 group triggering an
	// update learned from a payload imposes exactly as one learned by
	// polling. A pushed step leaves the regular schedule untouched.
	p.finishRefresh(e, refreshResult{
		kind:    core.PollPushed,
		now:     now,
		step:    step,
		paired:  paired,
		resized: true,
		newSize: size,
		applied: true,
		relay:   func() { p.relayAppliedUpdate(e, &out) },
	})
	return true
}

// resolveDelta reconstructs a pushed delta frame's full body against
// this proxy's resident copy of e. It reports ok=false — counting a
// base miss — when the advertised base digest does not match the body
// actually held, when the delta stream is malformed, or when the
// reconstruction does not hash to the frame's digest. The base digest
// is always compared against the digest of the bytes in hand (cached at
// the last swap, or hashed on demand), never against bookkeeping that
// could have gone stale — that is the invariant keeping a demoted or
// raced body from ever serving as a silent wrong base.
func (p *Proxy) resolveDelta(e *entry, ev *push.Event) ([]byte, bool) {
	e.mu.RLock()
	base := e.body
	baseDigest := e.bodyDigest
	e.mu.RUnlock()
	if baseDigest == "" {
		baseDigest = push.DigestOf(base)
	}
	if baseDigest != ev.BaseDigest {
		p.pushDeltaBaseMiss.Add(1)
		return nil, false
	}
	full, err := push.ApplyDelta(ev.DeltaCodec, base, ev.Body, 0)
	if err != nil || push.DigestOf(full) != ev.Digest {
		p.pushDeltaBaseMiss.Add(1)
		return nil, false
	}
	return full, true
}

// applyPushedToDisk lands a pushed payload on the disk record of an
// object that is no longer (or not yet again) resident — a CLOCK
// demotion whose record survives in the persistent tier. Without this,
// every push for a demoted object only marks its record stale, forcing
// a validating promotion; with it, the record tracks the origin, so the
// next promotion installs the pushed version (fetch-free inside the
// TTR, a 304 after it). A delta frame is applied against the disk body,
// whose digest is computed from the bytes actually read back (the
// content-addressed store verifies them against the record on every
// Get) — the same base-authority rule as the resident path. It
// reports whether the event was fully handled (installed, or recognized
// as a duplicate).
func (p *Proxy) applyPushedToDisk(ev push.Event) bool {
	if !p.cfg.PushValues || p.disk == nil || !ev.HasBody {
		return false
	}
	ck := eventCacheKey(ev.Key)
	rec, base, ok := p.disk.Get(ck)
	if !ok {
		return false
	}
	if rec.HasLastMod && !ev.ModTime.IsZero() && !ev.ModTime.After(rec.LastMod) {
		return true // duplicate: the record already carries this version
	}
	body := ev.Body
	if ev.BaseDigest != "" && ev.DeltaCodec != 0 {
		if push.DigestOf(base) != ev.BaseDigest {
			p.pushDeltaBaseMiss.Add(1)
			return false
		}
		full, err := push.ApplyDelta(ev.DeltaCodec, base, ev.Body, 0)
		if err != nil || push.DigestOf(full) != ev.Digest {
			p.pushDeltaBaseMiss.Add(1)
			return false
		}
		body = full
		p.pushDeltaApplied.Add(1)
	} else if push.DigestOf(ev.Body) != ev.Digest {
		return false
	}
	rec.ValidatedAt = p.cfg.Clock()
	if ev.ContentType != "" {
		rec.ContentType = ev.ContentType
	}
	if !ev.ModTime.IsZero() {
		rec.LastMod, rec.HasLastMod = ev.ModTime, true
	}
	p.disk.Put(rec, body)
	p.pushDiskApplied.Add(1)
	return true
}

// eventCacheKey maps an event's key to the cache key it names, the way
// lookup canonicalizes a caller-supplied key.
func eventCacheKey(key string) string {
	if u, err := url.Parse(key); err == nil {
		return canonicalKey(u)
	}
	return key
}

// eventKeyResolvesTo reports whether an origin invalidation event for
// the object cached under key would resolve back to that entry through
// handlePushEvent's lookup. The origin publishes events at path
// granularity with the decoded path as the key (its objects are keyed
// by r.URL.Path), so a cache key carrying a query string can never
// match one, and a key whose decoded path does not canonicalize back
// to it (e.g. a path containing a literal '?', cached as %3F) is
// unreachable too. Entries failing this test are marked unpushable and
// keep pure-polling freshness — stretching them would widen their Δt
// bound with nothing covering the gap.
func (p *Proxy) eventKeyResolvesTo(key string) bool {
	if strings.Contains(key, "?") {
		return false // canonical keys carry queries after a raw '?'
	}
	decoded, err := url.PathUnescape(key)
	if err != nil {
		return false
	}
	if decoded == key {
		return true // verbatim store lookup finds the entry
	}
	u, err := url.Parse(decoded)
	if err != nil {
		return false
	}
	return canonicalKey(u) == key
}

// handlePushConnect marks the channel healthy. A resumed connection
// whose gap outran the origin's replay buffer (hello.Reset) ran blind
// while stretched, so the catch-up sweep revalidates on the paper-mode
// schedule before stretching resumes.
func (p *Proxy) handlePushConnect(hello push.Event, resumed bool) {
	p.pushHealthy.Store(true)
	if hello.Reset && resumed {
		// Events were irrecoverably missed (a reconnect gap that outran
		// the upstream's replay buffer, or a mid-stream Reset from a
		// relaying upstream that lost its own upstream): revalidate on
		// the paper-mode schedule, and hand the hole on to any children
		// of this proxy — everything relayed before this instant is
		// suspect for them exactly as the upstream's stream is for us.
		p.fallbackSweep()
		p.relayReset()
	}
}

// handlePushFrameLoss reconciles a dropped stream line (oversized or
// undecodable): its content is unknown — possibly an update this proxy
// and its children will never see, possibly a mid-stream Reset — so the
// catch-up sweep restores paper-mode schedules and the relay announces
// the hole downstream, exactly as a Reset would. The channel stays
// healthy: subsequent polls re-stretch, and a well-behaved upstream
// never triggers this at all.
func (p *Proxy) handlePushFrameLoss() {
	p.fallbackSweep()
	p.relayReset()
}

// handlePushDisconnect falls back to pure polling: stretching stops and
// the catch-up sweep bounds the staleness the dead channel left behind.
// Children are told too (mid-stream Reset): while this proxy is blind,
// its relay announces nothing, so their stretched schedules must not
// outlive the guarantee that backed them.
func (p *Proxy) handlePushDisconnect(error) {
	if p.pushHealthy.Swap(false) {
		p.pushFallbacks.Add(1)
		p.fallbackSweep()
		p.relayReset()
	}
}

// fallbackSweep pulls every schedule entry whose poll was stretched
// beyond its unstretched instant back to that instant (or to now, when
// it already passed). After the sweep the schedule is exactly what pure
// paper-mode polling would have produced, so the Δt guarantee holds
// with no help from the channel.
//
// The whole sweep runs inside one schedMu critical section, paired with
// rescheduleHybrid making its stretch decision under the same lock:
// pushHealthy is cleared before the sweep acquires schedMu, so a racing
// poll either reschedules first (its item is on the heap and gets
// swept) or takes the lock after the sweep and reads the channel as
// unhealthy (no stretch). Entries that are mid-poll (item == nil)
// reschedule through the same gate when they finish. The single hold is
// a latency spike proportional to the cache size, but a channel death
// is rare and correctness of the Δt bound wins.
func (p *Proxy) fallbackSweep() {
	if p.cfg.PushStretch <= 1 {
		// Stretching disabled: every baseNextAt equals its nextAt, so
		// the sweep is a guaranteed no-op — skip the O(cache) walk and
		// the schedMu hold it would cost on every disconnect.
		return
	}
	now := p.cfg.Clock()
	var batch []*entry
	for i := range p.store.shards {
		sh := &p.store.shards[i]
		sh.mu.RLock()
		for _, e := range sh.entries {
			batch = append(batch, e)
		}
		sh.mu.RUnlock()
	}
	pulled := false
	p.schedMu.Lock()
	for _, e := range batch {
		if e.item == nil || !e.baseNextAt.Before(e.nextAt) {
			continue // unscheduled (queued, in flight, or evicted) or unstretched
		}
		at := e.baseNextAt
		if at.Before(now) {
			at = now
		}
		e.baseNextAt = at
		p.setNextAt(e, at)
		pulled = true
	}
	p.schedMu.Unlock()
	if pulled {
		p.kick()
	}
}

// stretchTTR widens e's regular TTR while the push channel is healthy,
// clamped to the TTR upper bound. With the channel down, stretching
// disabled, or an object the origin can never announce (a query-bearing
// cache key — events are path-granular — or a key exceeding the wire
// frame limit) the TTR passes through untouched — such objects keep
// pure-polling freshness.
func (p *Proxy) stretchTTR(e *entry, ttr time.Duration) time.Duration {
	if p.sub == nil || p.cfg.PushStretch <= 1 || e.unpushable || !p.pushHealthy.Load() {
		return ttr
	}
	if p.cfg.PushInterest && !p.sub.DeclaredInterest().Matches(e.key, e.group) {
		// The live upstream declaration does not cover this object: its
		// updates are filtered away before they reach us, so the channel
		// cannot carry its freshness burden. Pure-polling TTR until a
		// bounce widens the declaration. Checked dynamically — not
		// marked at admission — because the declaration this object
		// missed is itself refreshed by the admission-time bounce.
		// Sound against a racing reconnect: stretching requires
		// pushHealthy, which flips only after the attempt's declaration
		// (stored before its request goes out) is in place.
		return ttr
	}
	s := time.Duration(float64(ttr) * p.cfg.PushStretch)
	if max := p.maxBackoff(); s > max {
		s = max
	}
	if s < ttr {
		s = ttr
	}
	return s
}

// PushStats reports the state of the invalidation channel.
type PushStats struct {
	// Enabled reports whether the proxy was configured with a push URL.
	Enabled bool
	// Connected reports whether the channel is currently healthy
	// (stretched polling in effect).
	Connected bool
	// Events counts update notifications received.
	Events uint64
	// Polls counts pushed jobs enqueued (coalesced bursts enqueue one),
	// including the re-polls of a copy admitted or promoted while an
	// invalidation for it was in flight (see markStale). With
	// PushValues each job first tries to install the event's payload
	// and only polls when that fails.
	Polls uint64
	// Dropped counts events for objects that were not resident.
	Dropped uint64
	// ValueApplied counts pushed payloads installed directly — one
	// message, zero origin polls. ValueFallbacks counts pushed jobs
	// that degraded to a confirmation poll while value application was
	// enabled (digest mismatch, missing or over-cap payload, byte-budget
	// refusal).
	ValueApplied   uint64
	ValueFallbacks uint64
	// DeltaApplied counts pushed delta frames reconstructed, verified,
	// and installed (resident or disk tier). DeltaBaseMisses counts
	// deltas refused because the advertised base digest did not match
	// the body actually held (forged, stale, or raced base) — each one
	// degraded down the ladder instead of installing blind.
	// DeltaRebased counts relay publications that carried a delta form
	// for this proxy's own downstream (the upstream's delta reused when
	// the base matched, or one computed locally after a poll).
	// DiskApplied counts pushed payloads landed directly on a demoted
	// object's disk record while nothing was resident.
	DeltaApplied    uint64
	DeltaBaseMisses uint64
	DeltaRebased    uint64
	DiskApplied     uint64
	// ChunksAssembled counts chunked bodies the subscriber reassembled
	// and delivered whole; ChunksBroken counts chunk sets it abandoned
	// (hole, out-of-order frame, over-budget reassembly, or terminal
	// digest mismatch), each degraded to a confirmation poll.
	ChunksAssembled uint64
	ChunksBroken    uint64
	// Fallbacks counts healthy→disconnected transitions (each one ran a
	// catch-up sweep).
	Fallbacks uint64
	// Connects counts successful stream establishments (a mid-stream
	// Reset reconciliation is not one: the stream stayed up).
	Connects uint64
	// Bounces counts deliberate stream drops forcing an interest
	// renegotiation (an admission or a downstream subscriber outside
	// the live declaration).
	Bounces uint64
	// Resets counts mid-stream hello/Reset frames received (a relaying
	// upstream announcing a hole without dropping the connection); each
	// one ran the same reconciliation as a Reset at connect time.
	Resets uint64
	// SkippedFrames counts oversized stream lines the subscriber
	// dropped in place of dying and livelocking on reconnect replay.
	SkippedFrames uint64
	// LastSeq is the last fully processed stream position: the highest
	// of the last event handled and the stream position heartbeats have
	// advanced past frames the upstream withheld under this proxy's
	// declared interest (a filtered frame is processed by definition —
	// nobody here wanted it).
	LastSeq uint64
	// LastFrameAt is the wall-clock instant the last stream frame of
	// any kind arrived (zero before the first); HeartbeatTimeout is the
	// resolved watchdog interval. Together they bound how stale a
	// Connected reading can be — a health probe flags a connected
	// channel whose LastFrameAt trails now by more than the timeout.
	LastFrameAt      time.Time
	HeartbeatTimeout time.Duration
}

// PushStats returns the invalidation-channel counters.
func (p *Proxy) PushStats() PushStats {
	st := PushStats{
		Enabled:         p.sub != nil,
		Connected:       p.pushHealthy.Load(),
		Events:          p.pushEvents.Load(),
		Polls:           p.pushPolls.Load(),
		Dropped:         p.pushDropped.Load(),
		Fallbacks:       p.pushFallbacks.Load(),
		ValueApplied:    p.pushApplied.Load(),
		ValueFallbacks:  p.pushValueFallback.Load(),
		DeltaApplied:    p.pushDeltaApplied.Load(),
		DeltaBaseMisses: p.pushDeltaBaseMiss.Load(),
		DeltaRebased:    p.pushDeltaRebased.Load(),
		DiskApplied:     p.pushDiskApplied.Load(),
		LastSeq:         p.pushSeq.Load(),
	}
	if p.sub != nil {
		st.Connects = p.sub.Connects()
		st.ChunksAssembled = p.sub.ChunksAssembled()
		st.ChunksBroken = p.sub.ChunksBroken()
		st.Bounces = p.sub.Bounces()
		st.Resets = p.sub.Resets()
		st.SkippedFrames = p.sub.SkippedFrames()
		st.LastFrameAt = p.sub.LastFrameAt()
		st.HeartbeatTimeout = p.sub.HeartbeatTimeout()
		// An event's seq is stored after its poll is enqueued, and the
		// subscriber advances only after the handler returns, so taking
		// the max preserves the quiescence invariant "LastSeq advances
		// only once the matching work is in flight".
		if ls := p.sub.LastSeq(); ls > st.LastSeq {
			st.LastSeq = ls
		}
	}
	return st
}

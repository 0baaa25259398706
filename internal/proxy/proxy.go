// Package proxy implements the simulated caching proxy: cache entries,
// the TTR-driven refresh scheduler, and the wiring between per-object
// consistency policies and the mutual-consistency controllers. It mirrors
// the paper's simulation methodology (§6.1.1): an infinitely large cache,
// fixed network latency, and tolerances known to the proxy.
//
// Every poll is recorded in a per-object refresh log; the fidelity
// evaluator (internal/metrics) computes the paper's metrics post-hoc from
// those logs, so the proxy itself stays measurement-free.
package proxy

import (
	"fmt"
	"time"

	"broadway/internal/core"
	"broadway/internal/metrics"
	"broadway/internal/origin"
	"broadway/internal/sim"
	"broadway/internal/simtime"
)

// Proxy is a simulated caching proxy attached to a simulation engine and
// an origin server.
type Proxy struct {
	engine *sim.Engine
	origin *origin.Server

	entries map[core.ObjectID]*entry
	pairs   []*pairEntry
	groups  []*group

	failedPolls uint64
	hits        uint64
	misses      uint64
}

// entry is one individually scheduled cached object.
type entry struct {
	id core.ObjectID
	// policy is nil for push objects, which are never polled on a
	// schedule.
	policy core.Policy

	// state is what the core refresh step reads and advances; its
	// ValidatedAt is the server instant the cached copy reflects (the
	// If-Modified-Since timestamp of the next poll).
	state    core.ObjectState
	version  int
	hasValue bool

	nextAt     simtime.Time
	nextHandle sim.Handle
	inFlight   bool

	log      []metrics.Refresh
	grp      *group
	polls    uint64
	trigged  uint64
	failures uint64
}

// group couples related entries with a mutual-consistency controller.
type group struct {
	members    []*entry
	controller *core.MutualTimeController
}

// pairEntry drives two value objects polled jointly under a pair policy
// (the adaptive virtual-object approach of §4.2).
type pairEntry struct {
	a, b       *entry
	policy     *core.MutualValueAdaptive
	nextAt     simtime.Time
	nextHandle sim.Handle
}

// New returns a proxy bound to the engine and origin.
func New(engine *sim.Engine, org *origin.Server) *Proxy {
	return &Proxy{
		engine:  engine,
		origin:  org,
		entries: make(map[core.ObjectID]*entry),
	}
}

// RegisterOption customizes object registration.
type RegisterOption func(*entry)

// RegisterObject places the object in the cache and schedules its refresh
// loop: an initial fetch at the current instant, then polls on the
// policy's TTR sequence.
func (p *Proxy) RegisterObject(id core.ObjectID, policy core.Policy, opts ...RegisterOption) error {
	if _, dup := p.entries[id]; dup {
		return fmt.Errorf("proxy: object %q already registered", id)
	}
	if policy == nil {
		return fmt.Errorf("proxy: object %q registered without a policy", id)
	}
	e := &entry{id: id, policy: policy}
	for _, opt := range opts {
		opt(e)
	}
	p.entries[id] = e
	// The initial fetch is a poll like any other; it primes the cache.
	e.nextAt = p.engine.Now()
	e.nextHandle = p.engine.ScheduleAt(e.nextAt, sim.EventFunc(func(*sim.Engine) {
		p.poll(e, core.PollRegular)
	}))
	return nil
}

// RegisterGroup attaches a mutual-consistency controller to a set of
// already-registered objects. Each object may belong to at most one
// group.
func (p *Proxy) RegisterGroup(ids []core.ObjectID, controller *core.MutualTimeController) error {
	if len(ids) < 2 {
		return fmt.Errorf("proxy: a group needs at least two members")
	}
	g := &group{controller: controller}
	for _, id := range ids {
		e, ok := p.entries[id]
		if !ok {
			return fmt.Errorf("proxy: group member %q not registered", id)
		}
		if e.grp != nil {
			return fmt.Errorf("proxy: object %q already grouped", id)
		}
		g.members = append(g.members, e)
	}
	for _, e := range g.members {
		e.grp = g
	}
	p.groups = append(p.groups, g)
	return nil
}

// RegisterPair places two value objects under a joint pair policy: both
// are polled together on the pair policy's TTR sequence (the adaptive
// virtual-object approach). The objects must not also be individually
// registered.
func (p *Proxy) RegisterPair(idA, idB core.ObjectID, policy *core.MutualValueAdaptive) error {
	if idA == idB {
		return fmt.Errorf("proxy: pair needs two distinct objects")
	}
	for _, id := range []core.ObjectID{idA, idB} {
		if _, dup := p.entries[id]; dup {
			return fmt.Errorf("proxy: object %q already registered", id)
		}
	}
	pe := &pairEntry{
		a:      &entry{id: idA},
		b:      &entry{id: idB},
		policy: policy,
	}
	p.entries[idA] = pe.a
	p.entries[idB] = pe.b
	p.pairs = append(p.pairs, pe)
	p.schedulePair(pe, 0)
	return nil
}

// schedulePair books the pair's next joint poll ttr from now.
func (p *Proxy) schedulePair(pe *pairEntry, ttr time.Duration) {
	pe.nextAt = p.engine.Now().Add(ttr)
	pe.nextHandle = p.engine.ScheduleAt(pe.nextAt, sim.EventFunc(func(*sim.Engine) {
		p.pollPair(pe)
	}))
}

// RegisterPushObject places the object under server-push strong
// consistency (paper Eq. 1 and footnote 1): instead of the proxy polling,
// the origin pushes every update as it happens, so the cached copy is
// always current. This is the reference point the paper's Δ-consistency
// mechanisms relax; it costs one message per update regardless of
// interest in the object.
func (p *Proxy) RegisterPushObject(id core.ObjectID) error {
	if _, dup := p.entries[id]; dup {
		return fmt.Errorf("proxy: object %q already registered", id)
	}
	tr, ok := p.origin.Trace(id)
	if !ok {
		return fmt.Errorf("proxy: origin does not host %q", id)
	}
	e := &entry{id: id}
	p.entries[id] = e

	// Each push is one message, counted like a poll; the origin sends it
	// as the update happens, so it crosses no simulated network hop.
	push := sim.EventFunc(func(*sim.Engine) {
		now := p.engine.Now()
		resp, err := p.origin.Poll(e.id, now, e.state.ValidatedAt)
		p.apply(e, core.PollPushed, resp, err, now)
	})
	// Initial transfer now, then one push per server update.
	p.engine.ScheduleAt(p.engine.Now(), push)
	for _, u := range tr.Updates {
		at := simtime.At(u.At)
		if at.Before(p.engine.Now()) {
			continue
		}
		p.engine.ScheduleAt(at, push)
	}
	return nil
}

// poll initiates a refresh of the entry's object: the request crosses the
// network (one-way latency), the origin evaluates it, and the response
// crosses back before it is applied. With the default zero latency the
// whole exchange completes at the current instant (events fire in FIFO
// order), matching the paper's fixed-latency simplification (§6.1.1).
// A regular poll marks the entry in flight so triggering skips it.
func (p *Proxy) poll(e *entry, kind core.PollKind) {
	if kind == core.PollRegular {
		e.inFlight = true
	}
	p.engine.AfterLatency(sim.EventFunc(func(eng *sim.Engine) {
		serverTime := eng.Now()
		resp, err := p.origin.Poll(e.id, serverTime, e.state.ValidatedAt)
		p.engine.AfterLatency(sim.EventFunc(func(*sim.Engine) {
			p.apply(e, kind, resp, err, serverTime)
		}))
	}))
}

// apply installs a poll response once it has arrived back at the proxy:
// the core refresh step advances the entry's state and yields the next
// TTR (regular polls only) and whether the group controller should
// trigger polls of related objects. Triggered and pushed polls are
// layered on top of the object's own schedule (paper §3.2: "an
// additional poll is triggered"): they refresh the cache and advance the
// validation timestamp but neither feed the policy nor disturb the
// regular schedule.
func (p *Proxy) apply(e *entry, kind core.PollKind, resp origin.Response, err error, serverTime simtime.Time) {
	if err != nil {
		// Origin down: count the failure. A regular poll retries after
		// the policy's floor interval, without feeding the policy a fake
		// outcome; other kinds leave the retry to the regular schedule.
		e.failures++
		p.failedPolls++
		if kind == core.PollRegular {
			e.inFlight = false
			p.schedule(e, e.policy.InitialTTR())
		}
		return
	}
	e.polls++
	if kind == core.PollTriggered {
		e.trigged++
	}

	step := core.Refresh(e.policy, e.state, kind, serverTime, core.Observation{
		Modified:        resp.Modified,
		LastModified:    resp.LastModified,
		HasLastModified: resp.HasLastModified,
		History:         resp.History,
		HasValue:        resp.HasValue,
		Value:           resp.Value,
	})
	e.state = step.State
	e.version = resp.Version
	if resp.HasValue {
		e.hasValue = true
	}
	e.log = append(e.log, metrics.Refresh{
		At:        serverTime,
		Modified:  resp.Modified,
		Version:   resp.Version,
		Value:     resp.Value,
		Triggered: kind == core.PollTriggered,
	})

	if step.Reschedule {
		e.inFlight = false
		p.schedule(e, step.TTR)
	}
	if e.grp != nil {
		// The controller learns from every poll, triggered ones included.
		e.grp.controller.ObserveOutcome(e.id, step.Outcome)
		if step.Trigger {
			p.triggerRelated(e, p.engine.Now())
		}
	}
}

// schedule books the entry's next poll ttr from now.
func (p *Proxy) schedule(e *entry, ttr time.Duration) {
	e.nextAt = p.engine.Now().Add(ttr)
	e.nextHandle = p.engine.ScheduleAt(e.nextAt, sim.EventFunc(func(*sim.Engine) {
		p.poll(e, core.PollRegular)
	}))
}

// triggerRelated schedules an immediate extra poll of every related
// object the group controller selects after e was observed to change.
func (p *Proxy) triggerRelated(e *entry, now simtime.Time) {
	related := core.Triggers(e.grp.controller, e.id, now, e.grp.members, func(m *entry) core.GroupMember {
		return core.GroupMember{ID: m.id, ValidatedAt: m.state.ValidatedAt, NextPoll: m.nextAt, Busy: m.inFlight}
	})
	for _, other := range related {
		p.engine.ScheduleAt(now, sim.EventFunc(func(*sim.Engine) {
			p.poll(other, core.PollTriggered)
		}))
	}
}

// pollPair fetches both members of a pair (two polls over the network)
// and consults the pair policy.
func (p *Proxy) pollPair(pe *pairEntry) {
	p.engine.AfterLatency(sim.EventFunc(func(eng *sim.Engine) {
		serverTime := eng.Now()
		respA, errA := p.origin.Poll(pe.a.id, serverTime, pe.a.state.ValidatedAt)
		respB, errB := p.origin.Poll(pe.b.id, serverTime, pe.b.state.ValidatedAt)
		p.engine.AfterLatency(sim.EventFunc(func(*sim.Engine) {
			p.applyPair(pe, respA, respB, errA, errB, serverTime)
		}))
	}))
}

// applyPair applies a joint pair-poll response.
func (p *Proxy) applyPair(pe *pairEntry, respA, respB origin.Response, errA, errB error, now simtime.Time) {
	if errA != nil || errB != nil {
		p.failedPolls++
		p.schedulePair(pe, pe.policy.InitialTTR())
		return
	}
	pe.a.polls++
	pe.b.polls++

	outcome := core.PairOutcome{
		Now:        now,
		Prev:       pe.a.state.ValidatedAt,
		ValueA:     respA.Value,
		ValueB:     respB.Value,
		PrevValueA: pe.a.state.Value,
		PrevValueB: pe.b.state.Value,
	}
	fetched := pe.a.state.Fetched

	apply := func(e *entry, resp origin.Response) {
		e.state = core.ObjectState{ValidatedAt: now, Value: resp.Value, Fetched: true}
		e.version = resp.Version
		e.hasValue = resp.HasValue
		e.log = append(e.log, metrics.Refresh{
			At: now, Modified: resp.Modified, Version: resp.Version, Value: resp.Value,
		})
	}
	apply(pe.a, respA)
	apply(pe.b, respB)

	p.schedulePair(pe, pe.policy.RefreshTTR(fetched, outcome))
}

// CachedCopy is the proxy's view of one object, served to clients on
// cache hits.
type CachedCopy struct {
	Version  int
	Value    float64
	HasValue bool
	// AsOf is the server instant the copy reflects.
	AsOf simtime.Time
}

// Lookup serves a client request from the cache. ok is false when the
// object is unknown or its initial fetch has not completed yet.
func (p *Proxy) Lookup(id core.ObjectID) (CachedCopy, bool) {
	e, found := p.entries[id]
	if !found || !e.state.Fetched {
		return CachedCopy{}, false
	}
	return CachedCopy{
		Version:  e.version,
		Value:    e.state.Value,
		HasValue: e.hasValue,
		AsOf:     e.state.ValidatedAt,
	}, true
}

// HandleRequest serves a client request at the current simulated instant.
// A request for a cached object is a hit, served locally (paper §2:
// "cache hits are serviced using locally cached data"). A request for an
// unknown object is a miss: the object is fetched from the origin and
// admitted under a policy built by mkPolicy, mirroring miss-driven
// admission in a real proxy.
func (p *Proxy) HandleRequest(id core.ObjectID, mkPolicy func() core.Policy) (hit bool, err error) {
	if e, ok := p.entries[id]; ok && e.state.Fetched {
		p.hits++
		return true, nil
	}
	if _, ok := p.entries[id]; ok {
		// Registered but the initial fetch has not fired yet (same
		// instant): a miss served by the in-flight fetch.
		p.misses++
		return false, nil
	}
	p.misses++
	if err := p.RegisterObject(id, mkPolicy()); err != nil {
		return false, err
	}
	return false, nil
}

// Hits returns the number of client requests served from the cache.
func (p *Proxy) Hits() uint64 { return p.hits }

// Misses returns the number of client requests that required a fetch.
func (p *Proxy) Misses() uint64 { return p.misses }

// Log returns the refresh log recorded for the object. The returned slice
// is a copy.
func (p *Proxy) Log(id core.ObjectID) []metrics.Refresh {
	e, ok := p.entries[id]
	if !ok {
		return nil
	}
	out := make([]metrics.Refresh, len(e.log))
	copy(out, e.log)
	return out
}

// Polls returns the number of successful polls performed for the object.
func (p *Proxy) Polls(id core.ObjectID) uint64 {
	if e, ok := p.entries[id]; ok {
		return e.polls
	}
	return 0
}

// TriggeredPolls returns the number of controller-triggered polls
// performed for the object.
func (p *Proxy) TriggeredPolls(id core.ObjectID) uint64 {
	if e, ok := p.entries[id]; ok {
		return e.trigged
	}
	return 0
}

// TotalPolls returns the number of successful polls across all objects.
func (p *Proxy) TotalPolls() uint64 {
	var total uint64
	for _, e := range p.entries {
		total += e.polls
	}
	return total
}

// FailedPolls returns the number of polls that failed because the origin
// was unavailable.
func (p *Proxy) FailedPolls() uint64 { return p.failedPolls }

// Recover models the proxy restarting after a failure (paper §3.1):
// every policy resets to its initial TTR — the paper's one-line recovery
// story — and every object is revalidated immediately, since cached state
// may be arbitrarily stale after the outage. Refresh logs survive (they
// model external measurement, not proxy state).
func (p *Proxy) Recover() {
	for _, e := range p.entries {
		if e.policy == nil {
			continue // pair members recover through their pairEntry
		}
		e.policy.Reset()
		p.engine.Cancel(e.nextHandle)
		p.schedule(e, 0)
	}
	for _, pe := range p.pairs {
		pe.policy.Reset()
		p.engine.Cancel(pe.nextHandle)
		p.schedulePair(pe, 0)
	}
	for _, g := range p.groups {
		g.controller.Reset()
	}
}

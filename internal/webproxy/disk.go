package webproxy

// The persistent disk tier (Config.DiskDir): every validated object is
// written behind the sharded in-memory store through the shared
// finishRefresh path — asynchronously, so the hit path never touches
// disk — and three flows bring state back:
//
//   - rehydrate (startup): records within the grace window re-enter the
//     store born *suspect*, scheduled for an immediate validation poll
//     through the ordinary worker pool (so a restart cannot self-herd
//     the origin), and served as X-Cache: GRACE until confirmed. The Δt
//     guarantee across a restart is therefore explicit: at most
//     DiskGrace plus the validation queue delay, never silently
//     unbounded.
//   - promote (demand): a request for a key that lives only on disk —
//     demoted by CLOCK replacement or beyond the grace window at
//     startup — re-admits it. A record this process validated less
//     than its learned TTR ago is installed as it stands, with no
//     upstream contact, exactly as a resident copy would be served
//     until its next poll. Everything else revalidates with a
//     conditional fetch before serving, reusing the disk body on a
//     304: a record whose TTR has lapsed, one written by an earlier
//     process, a group member (it missed the §3.2 triggered polls),
//     and one marked stale because an invalidation or refresh reached
//     the proxy while the object was not resident. Promotion runs
//     inside the admission singleflight, so the re-admission race
//     resolves to at most one origin fetch.
//   - demote (replacement): CLOCK victims keep their disk record (the
//     write-behind already persisted their last validated state), so
//     capacity is disk-bound, not RAM-bound. Admin Evict purges both
//     tiers.

import (
	"time"

	"broadway/internal/diskstore"
	"broadway/internal/httpx"
	"broadway/internal/push"
)

// persistEntry snapshots e's validated state into the disk tier's
// write-behind queue. Called from finishRefresh (every poll, trigger,
// and pushed-value install) and from the admission paths; a no-op when
// persistence is disabled or the entry was never admitted.
func (p *Proxy) persistEntry(e *entry) {
	if p.disk == nil || e.capped {
		return
	}
	e.mu.RLock()
	rec := diskstore.Record{
		Key:          e.key,
		Group:        e.group,
		ContentType:  e.contentType,
		CacheControl: e.cacheControl,
		LastMod:      e.lastMod,
		HasLastMod:   e.hasLastMod,
		ValidatedAt:  e.validatedAt,
		Delta:        e.delta,
		GroupDelta:   e.groupDelta,
		ValueDelta:   e.valueDelta,
	}
	// A paired M_v policy is half of a shared controller whose split
	// tolerance dies with the pair; persist TTR zero and let the
	// rehydrated entry re-learn (and re-pair) from scratch.
	if !e.paired {
		rec.TTR = learnedTTR(e.policy)
	}
	body := e.body
	e.mu.RUnlock()
	p.disk.Put(rec, body)
}

// demote finishes a replacement eviction: the victims are unwound from
// scheduler, groups, and ledger exactly as before, but their disk
// records — already current via the write-behind — survive, so the
// next request promotes from disk instead of paying a cold fetch.
func (p *Proxy) demote(victims []*entry) {
	p.unwind(victims)
	if p.disk == nil {
		return
	}
	for _, v := range victims {
		if _, ok := p.disk.Meta(v.key); ok {
			p.diskDemotions.Add(1)
		}
	}
}

// promote re-admits a disk-resident object. A record that is still
// fresh (see freshOnDisk) is installed as it stands, with no upstream
// contact: a resident copy in that state would not be due for a poll
// either, and the next regular poll lands where the resident schedule
// had it, at ValidatedAt + TTR. Any other record goes through a
// validating conditional fetch: a 304 reuses the disk body (metadata
// and learned TTR restored), a 200 installs the fresh version. Either
// way the entry re-enters the store validated — never suspect — so
// promotion cannot widen the Δt bound past pure polling. Callers hold
// the admission singleflight slot.
func (p *Proxy) promote(key string, rec diskstore.Record, body []byte) (*entry, error) {
	now := p.cfg.Clock()
	announced, marked := p.takeStale(key, rec.ValidatedAt)
	stale := marked && predates(announced, rec.LastMod, rec.HasLastMod)
	var e *entry
	var inserted bool
	if !stale && p.freshOnDisk(rec, now) {
		// No poll happened, so nothing is re-persisted (the record did
		// not change) and no PollObservation is emitted.
		a := p.recordAdmission(rec, body)
		e, inserted = p.installEntry(key, a)
		p.diskFresh.Add(1)
	} else {
		var err error
		if e, inserted, err = p.promoteValidated(key, rec, body); err != nil {
			if stale {
				p.markStale(key, announced) // still owed a validation
			}
			return nil, err
		}
	}
	p.diskPromotions.Add(1)
	if inserted {
		// Marked while this promotion ran (an invalidation that found
		// nothing resident): the installed copy may predate it.
		p.pollIfMarked(e, now)
	}
	return e, nil
}

// freshOnDisk reports whether a demoted record may be promoted without
// an upstream round trip. All of these must hold:
//   - a learned TTR (paired M_v halves persist zero and re-learn);
//   - no consistency group (a demoted member missed the §3.2 triggered
//     polls, so its δ cannot be vouched for);
//   - validated by this process (an earlier process's record keeps the
//     restart semantics: GRACE inside DiskGrace, validation outside);
//   - now still before ValidatedAt + TTR, the instant a resident copy
//     would be polled in pure polling.
//
// Records marked stale (see markStale) are screened out by the
// caller.
func (p *Proxy) freshOnDisk(rec diskstore.Record, now time.Time) bool {
	return rec.TTR > 0 && rec.Group == "" &&
		!rec.ValidatedAt.Before(p.epoch) &&
		now.Before(rec.ValidatedAt.Add(rec.TTR))
}

// promoteValidated re-admits a disk record through a validating
// conditional fetch.
func (p *Proxy) promoteValidated(key string, rec diskstore.Record, body []byte) (*entry, bool, error) {
	since := rec.ValidatedAt
	if rec.HasLastMod {
		since = rec.LastMod
	}
	resp, err := p.fetch(key, since)
	if err != nil {
		// No unvalidated stale serves on the demand path: the client
		// gets the same 502 a cold miss would. (Grace-mode serving is a
		// startup decision, made explicitly and labeled.)
		return nil, false, err
	}
	now := p.cfg.Clock()
	a := admission{
		validatedAt: now,
		delta:       p.cfg.DefaultDelta,
		groupDelta:  p.cfg.DefaultGroupDelta,
		valueDelta:  rec.ValueDelta,
		group:       rec.Group,
		initialPoll: true,
	}
	// Tolerance resolution: config defaults, overlaid by the persisted
	// record, overlaid by whatever the origin's response advertises now
	// — the origin's current directives always win, the record only
	// fills silence (a 304 with no Cache-Control).
	if rec.Delta > 0 {
		a.delta = rec.Delta
	}
	if rec.GroupDelta > 0 {
		a.groupDelta = rec.GroupDelta
	}
	if tol, err := httpx.TolerancesFrom(resp.header); err == nil {
		if tol.Delta > 0 {
			a.delta = tol.Delta
		}
		if tol.GroupDelta > 0 {
			a.groupDelta = tol.GroupDelta
		}
		if tol.ValueDelta > 0 {
			a.valueDelta = tol.ValueDelta
		}
		if tol.Group != "" {
			a.group = tol.Group
		}
	}
	if resp.notModified {
		a.body = body
		a.bodyDigest = recordDigest(rec)
		a.contentType = rec.ContentType
		a.cacheControl = rec.CacheControl
		if cc := resp.header.Get("Cache-Control"); cc != "" {
			a.cacheControl = cc
		}
		a.lastMod, a.hasLastMod = rec.LastMod, rec.HasLastMod
		// The copy is unchanged, so the TTR learned across the object's
		// whole history is still the right schedule.
		a.restoreTTR = rec.TTR
	} else {
		a.body = resp.body
		a.contentType = resp.contentType
		a.cacheControl = resp.header.Get("Cache-Control")
		a.lastMod, a.hasLastMod = resp.lastMod, resp.hasLastMod
	}

	var admittedValue float64
	var admittedHasValue bool
	if a.valueDelta > 0 {
		admittedValue, admittedHasValue = parseValueBody(a.body)
	}

	e, inserted := p.installEntry(key, a)
	if inserted {
		p.persistEntry(e)
	} else if !resp.notModified {
		// Served uncached: the record now predates a version a client
		// has seen, so it must not be promoted as fresh.
		p.markStale(key, time.Time{})
	}
	if obs := p.cfg.PollObserver; obs != nil {
		obs(PollObservation{
			Key: key, At: now, Modified: !resp.notModified, Initial: true,
			Value: admittedValue, HasValue: admittedHasValue,
		})
	}
	return e, inserted, nil
}

// recordAdmission builds the admission for a disk record installed with
// no fetch (a fresh promotion or a startup rehydration): the record's
// validated state, its persisted tolerances over the config defaults,
// and its learned TTR.
func (p *Proxy) recordAdmission(rec diskstore.Record, body []byte) admission {
	a := admission{
		body:         body,
		bodyDigest:   recordDigest(rec),
		contentType:  rec.ContentType,
		cacheControl: rec.CacheControl,
		lastMod:      rec.LastMod,
		hasLastMod:   rec.HasLastMod,
		validatedAt:  rec.ValidatedAt,
		delta:        p.cfg.DefaultDelta,
		groupDelta:   p.cfg.DefaultGroupDelta,
		valueDelta:   rec.ValueDelta,
		group:        rec.Group,
		restoreTTR:   rec.TTR,
	}
	if rec.Delta > 0 {
		a.delta = rec.Delta
	}
	if rec.GroupDelta > 0 {
		a.groupDelta = rec.GroupDelta
	}
	return a
}

// recordDigest derives push.DigestOf(body) from a record's full SHA-256
// digest, which diskstore.Get has just verified against the body.
func recordDigest(rec diskstore.Record) string {
	if len(rec.Digest) < digestLen {
		return ""
	}
	return rec.Digest[:digestLen]
}

// digestLen is the length of a push.DigestOf digest: the first 8 bytes
// of the SHA-256, hex-encoded.
const digestLen = 16

// staleMarkMax bounds the stale-mark set (see Proxy.staleMarks).
const staleMarkMax = 4096

// markStale records that key's copy outside the store — the response of
// an admission fetch in flight, or a disk record — may be older than
// what the proxy has learned about the object while it was not
// resident, so an admission installing it polls once more and a
// promotion of the record validates. announced is the modification an
// invalidation announced, or zero when unknown: a copy already at that
// version is current (see predates). A key with neither an admission in
// flight nor a disk record is skipped — nothing could serve a stale copy
// of it. The mark is set before the store is checked again: an
// admission or promotion that installed the key concurrently either
// finds the mark after its install (see pollIfMarked) or is returned
// here, so the caller can poll it.
func (p *Proxy) markStale(key string, announced time.Time) *entry {
	if !p.flight.InFlight(key) {
		if p.disk == nil {
			return nil
		}
		if _, ok := p.disk.Meta(key); !ok {
			return nil
		}
	}
	p.staleMu.Lock()
	if len(p.staleMarks) >= staleMarkMax {
		p.staleMarks = nil
		p.staleFloor = p.cfg.Clock()
	}
	if p.staleMarks == nil {
		p.staleMarks = make(map[string]time.Time)
	}
	if prev, ok := p.staleMarks[key]; ok && !announced.IsZero() && (prev.IsZero() || prev.After(announced)) {
		announced = prev // an unknown or newer announcement wins
	}
	p.staleMarks[key] = announced
	p.staleMu.Unlock()
	if e := p.store.get(key); e != nil && !e.evicted.Load() {
		return e
	}
	return nil
}

// pollIfPromoted marks key stale and, when a concurrent admission or
// promotion has already brought the object back, polls it.
func (p *Proxy) pollIfPromoted(key string) {
	if e := p.markStale(key, time.Time{}); e != nil {
		p.queueStalePoll(e)
	}
}

// pollIfMarked consumes e's stale mark once an admission or promotion
// has installed e from a copy validated at since, and polls e once more
// if that copy may predate the mark.
func (p *Proxy) pollIfMarked(e *entry, since time.Time) {
	announced, marked := p.takeStale(e.key, since)
	if !marked {
		return
	}
	e.mu.RLock()
	stale := predates(announced, e.lastMod, e.hasLastMod)
	e.mu.RUnlock()
	if stale {
		p.queueStalePoll(e)
	}
}

// predates reports whether a copy last modified at lastMod may predate
// a stale mark that announced the modification at announced. Origins
// modify strictly forward in time, so a copy at or past the announced
// instant already holds that version — the rule a pushed duplicate is
// recognized by. An unknown announcement or modification time always
// predates.
func predates(announced, lastMod time.Time, hasLastMod bool) bool {
	return announced.IsZero() || !hasLastMod || announced.After(lastMod)
}

// queueStalePoll polls e, installed from a copy that may be stale, as a
// pushed job: now, and without disturbing its regular schedule.
func (p *Proxy) queueStalePoll(e *entry) {
	p.queuePushed(e, &push.Event{Kind: push.KindUpdate, Key: e.key})
}

// takeStale consumes key's stale mark, returning what it announced. A
// copy validated no later than the floor a set overflow left behind
// counts as marked, with an unknown announcement.
func (p *Proxy) takeStale(key string, validatedAt time.Time) (announced time.Time, marked bool) {
	p.staleMu.Lock()
	defer p.staleMu.Unlock()
	announced, marked = p.staleMarks[key]
	if marked {
		delete(p.staleMarks, key)
	}
	if !validatedAt.After(p.staleFloor) {
		return time.Time{}, true
	}
	return announced, marked
}

// rehydrate re-admits disk records into the in-memory store at startup.
// Records within the grace window come back warm — born suspect, with
// an immediate validation poll scheduled (dispatched by the worker pool
// once Start runs, which rate-limits the origin herd) — while older
// records stay on disk until a request promotes them through a
// validating fetch.
func (p *Proxy) rehydrate() {
	now := p.cfg.Clock()
	for _, key := range p.disk.Keys() {
		rec, body, ok := p.disk.Get(key)
		if !ok {
			continue
		}
		if now.Sub(rec.ValidatedAt) > p.cfg.DiskGrace {
			// Too stale for grace-mode serving (with DiskGrace < 0,
			// everything is): left demoted, promoted on demand.
			continue
		}
		a := p.recordAdmission(rec, body)
		a.suspect = true
		a.scheduleAt = now // immediate validation poll
		if _, inserted := p.installEntry(key, a); inserted {
			p.diskRehydrated.Add(1)
		}
	}
}

// DiskStats reports the persistent tier's state and lifetime counters;
// Enabled false (the zero value) means Config.DiskDir was not set.
type DiskStats struct {
	// Enabled reports whether the disk tier is configured.
	Enabled bool
	// Records and Bytes are the durable index's current footprint.
	Records int
	Bytes   int64
	// PendingWrites is the write-behind queue depth (coalesced keys).
	PendingWrites int
	// Writes and WriteErrors count applied and failed persist
	// operations; Deletes counts applied purges; Evictions counts
	// records dropped by the disk byte budget (oldest validated first).
	Writes      uint64
	WriteErrors uint64
	Deletes     uint64
	Evictions   uint64
	// Demotions counts replacement victims whose disk record made the
	// eviction a tier transition instead of a loss; Promotions counts
	// disk records re-admitted on demand, and FreshPromotions the share
	// of those installed within the record's TTR with no upstream
	// request (the rest ran a validating fetch).
	Demotions       uint64
	Promotions      uint64
	FreshPromotions uint64
	// Rehydrated counts entries restored warm at startup; GraceServes
	// counts hits served as X-Cache: GRACE before re-validation.
	Rehydrated  uint64
	GraceServes uint64
}

// DiskStats returns the disk tier's counters (zero value when disabled).
func (p *Proxy) DiskStats() DiskStats {
	if p.disk == nil {
		return DiskStats{}
	}
	st := p.disk.Stats()
	return DiskStats{
		Enabled:         true,
		Records:         st.Records,
		Bytes:           st.Bytes,
		PendingWrites:   st.PendingWrites,
		Writes:          st.Writes,
		WriteErrors:     st.WriteErrors,
		Deletes:         st.Deletes,
		Evictions:       st.Evictions,
		Demotions:       p.diskDemotions.Load(),
		Promotions:      p.diskPromotions.Load(),
		FreshPromotions: p.diskFresh.Load(),
		Rehydrated:      p.diskRehydrated.Load(),
		GraceServes:     p.diskGraceServes.Load(),
	}
}

// FlushDisk drains the write-behind queue; a no-op when persistence is
// disabled. Tests (and the crash smoke's graceful path) use it to make
// "persisted" deterministic.
func (p *Proxy) FlushDisk() {
	if p.disk != nil {
		p.disk.Flush()
	}
}

package webproxy

// Tests for the persistent disk tier: kill-and-restart rehydration on
// the stepped clock (the Δt guarantee must hold across a process
// boundary), demotion keeping a working set larger than RAM servable,
// grace-window semantics, and two-tier eviction.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"broadway/internal/core"
	"broadway/internal/diskstore"
	"broadway/internal/push"
	"broadway/internal/webserver"
)

// ttrOf reads the learned TTR of a resident entry's policy.
func ttrOf(t *testing.T, px *Proxy, key string) time.Duration {
	t.Helper()
	e := px.lookup(key)
	if e == nil {
		t.Fatalf("%s not resident", key)
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	tp, ok := e.policy.(interface{ TTR() time.Duration })
	if !ok {
		t.Fatalf("%s policy %T does not expose TTR", key, e.policy)
	}
	return tp.TTR()
}

// quiesceSim drives the proxy until no poll is queued, in flight, or due
// at the current virtual instant (the conformance battery's replay
// discipline, reused for restart tests).
func quiesceSim(t *testing.T, px *Proxy, clk *simClock) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		inFlight := px.InFlightPolls()
		next, ok := px.NextRefreshAt()
		if inFlight == 0 && (!ok || next.After(clk.Now())) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("proxy never quiesced: inflight=%d next=%v now=%v", inFlight, next, clk.Now())
		}
		px.Kick()
		time.Sleep(100 * time.Microsecond)
	}
}

// TestRestartRehydratesWarmZeroDeltaViolations is the kill-and-restart
// conformance replay: a proxy learns per-object TTRs on the stepped
// clock, shuts down, and a second proxy over the same -disk-dir must
// come back warm — every object resident before Start, served as
// X-Cache: GRACE until its single validation poll confirms it, learned
// TTR state intact — with no body ever served that violates Δt after
// validation, including an object the origin rewrote during the
// downtime.
func TestRestartRehydratesWarmZeroDeltaViolations(t *testing.T) {
	clk := newSimClock()
	dir := t.TempDir()

	origin := webserver.NewOrigin(webserver.WithClock(clk.Now))
	originSrv := httptest.NewServer(origin)
	defer originSrv.Close()
	u, err := url.Parse(originSrv.URL)
	if err != nil {
		t.Fatal(err)
	}

	const n = 6
	truth := make(map[string]string, n) // origin ground truth per key
	key := func(i int) string { return fmt.Sprintf("/d/%d", i) }
	for i := 0; i < n; i++ {
		truth[key(i)] = fmt.Sprintf("object %d rev 1", i)
		origin.Set(key(i), []byte(truth[key(i)]), "text/plain")
	}

	var mu sync.Mutex
	polls := make(map[string]int)
	cfg := Config{
		Origin:       u,
		Clock:        clk.Now,
		PollWorkers:  1,
		DefaultDelta: 30 * time.Second,
		Bounds:       core.TTRBounds{Min: 10 * time.Second, Max: 10 * time.Minute},
		DiskDir:      dir,
		PollObserver: func(o PollObservation) {
			mu.Lock()
			polls[o.Key]++
			mu.Unlock()
		},
	}

	px1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	px1.Start()
	clk.AdvanceTo(clk.base.Add(admissionPhase))
	for i := 0; i < n; i++ {
		if code, body, _ := proxyGet(t, px1, key(i)); code != 200 || body != truth[key(i)] {
			t.Fatalf("admission of %s: %d %q", key(i), code, body)
		}
	}
	quiesceSim(t, px1, clk)

	// Learn: three unmodified refresh rounds grow each object's TTR past
	// the lower bound; that learned schedule is what must survive.
	for round := 0; round < 3; round++ {
		next, ok := px1.NextRefreshAt()
		if !ok {
			t.Fatal("nothing scheduled")
		}
		clk.AdvanceTo(next)
		px1.Kick()
		quiesceSim(t, px1, clk)
	}
	learned := make(map[string]time.Duration, n)
	for i := 0; i < n; i++ {
		learned[key(i)] = ttrOf(t, px1, key(i))
		if learned[key(i)] <= cfg.Bounds.Min {
			t.Fatalf("%s TTR %v never grew past the bound %v", key(i), learned[key(i)], cfg.Bounds.Min)
		}
	}
	px1.Close()

	// Downtime: two minutes pass (inside the default 5m grace window),
	// during which the origin rewrites object 0.
	clk.AdvanceTo(clk.Now().Add(2 * time.Minute))
	truth[key(0)] = "object 0 rev 2"
	origin.Set(key(0), []byte(truth[key(0)]), "text/plain")

	mu.Lock()
	polls = make(map[string]int)
	mu.Unlock()
	px2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer px2.Close()

	// Before Start: every object is back, learned TTR intact (no
	// validation poll has run yet to advance it), served under grace.
	if got := px2.Len(); got != n {
		t.Fatalf("rehydrated %d objects, want %d", got, n)
	}
	if got := px2.DiskStats().Rehydrated; got != n {
		t.Errorf("DiskStats.Rehydrated = %d, want %d", got, n)
	}
	for i := 0; i < n; i++ {
		if got := ttrOf(t, px2, key(i)); got != learned[key(i)] {
			t.Errorf("%s restored TTR = %v, want the learned %v", key(i), got, learned[key(i)])
		}
		code, body, hdr := proxyGet(t, px2, key(i))
		if code != 200 {
			t.Fatalf("grace serve of %s: %d", key(i), code)
		}
		if hdr.Get("X-Cache") != "GRACE" {
			t.Errorf("pre-validation serve of %s labeled %q, want GRACE", key(i), hdr.Get("X-Cache"))
		}
		// The grace window bounds what this serve may be: the last
		// validated copy. Object 0's downtime rewrite is allowed to be
		// invisible here — but only here.
		if i != 0 && body != truth[key(i)] {
			t.Errorf("grace serve of %s = %q, want %q", key(i), body, truth[key(i)])
		}
	}
	if px2.DiskStats().GraceServes == 0 {
		t.Error("no grace serves counted")
	}

	// Start drains the validation polls through the worker pool.
	px2.Start()
	quiesceSim(t, px2, clk)

	// Exactly one validation poll per object — a restart must not herd.
	mu.Lock()
	for i := 0; i < n; i++ {
		if got := polls[key(i)]; got != 1 {
			t.Errorf("%s saw %d validation polls, want 1", key(i), got)
		}
	}
	mu.Unlock()

	// Validated: every serve is a plain HIT of the origin's current
	// body — the downtime rewrite included. Zero Δt violations remain.
	for i := 0; i < n; i++ {
		code, body, hdr := proxyGet(t, px2, key(i))
		if code != 200 || body != truth[key(i)] {
			t.Errorf("post-validation serve of %s = %d %q, want 200 %q", key(i), code, body, truth[key(i)])
		}
		if hdr.Get("X-Cache") != "HIT" {
			t.Errorf("post-validation serve of %s labeled %q, want HIT", key(i), hdr.Get("X-Cache"))
		}
	}
}

// TestDemotionKeepsWorkingSetServableFromDisk pins the tier-transition
// semantics: a memory budget far below the working set keeps every
// object servable — CLOCK victims demote to disk and come back through
// a validating 304 that reuses the stored body, so no object's body is
// ever fetched from the origin twice.
func TestDemotionKeepsWorkingSetServableFromDisk(t *testing.T) {
	var mu sync.Mutex
	fullFetches := make(map[string]int)
	lastMod := time.Now().UTC().Add(-time.Hour).Truncate(time.Second)
	body := func(path string) string {
		b := fmt.Sprintf("payload of %s ", path)
		for len(b) < 1024 {
			b += "x"
		}
		return b
	}
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Last-Modified", lastMod.Format(http.TimeFormat))
		if ims := r.Header.Get("If-Modified-Since"); ims != "" {
			if since, err := http.ParseTime(ims); err == nil && !lastMod.After(since) {
				w.WriteHeader(http.StatusNotModified)
				return
			}
		}
		mu.Lock()
		fullFetches[r.URL.Path]++
		mu.Unlock()
		fmt.Fprint(w, body(r.URL.Path))
	})

	// ~1.5KiB per resident entry; 3200 bytes keeps roughly two of the
	// eight objects in memory at any instant.
	px, _ := newHandlerProxy(t, handler, Config{
		MaxBytes:     3200,
		Shards:       2,
		Bounds:       noRefreshBounds,
		DefaultDelta: time.Hour,
		DiskDir:      t.TempDir(),
	})

	const n = 8
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("/w/%d", i)
		if code, got, _ := proxyGet(t, px, k); code != 200 || got != body(k) {
			t.Fatalf("first pass %s: %d (body len %d)", k, code, len(got))
		}
	}
	checkStoreInvariants(t, px)
	ds := px.DiskStats()
	if ds.Demotions == 0 {
		t.Fatal("no demotions: the byte budget did not displace anything")
	}

	// Second pass: everything is still servable — resident keys HIT,
	// demoted keys promote from disk via 304 — and the origin never
	// re-sends a body.
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("/w/%d", i)
		code, got, hdr := proxyGet(t, px, k)
		if code != 200 || got != body(k) {
			t.Fatalf("second pass %s: %d (body len %d)", k, code, len(got))
		}
		if xc := hdr.Get("X-Cache"); xc != "HIT" && xc != "MISS" {
			t.Errorf("second pass %s labeled %q", k, xc)
		}
	}
	checkStoreInvariants(t, px)
	if ds = px.DiskStats(); ds.Promotions == 0 {
		t.Error("no promotions: the second pass should have come back from disk")
	}
	mu.Lock()
	for k, c := range fullFetches {
		if c != 1 {
			t.Errorf("%s fetched in full %d times, want 1 (revalidation must 304)", k, c)
		}
	}
	if len(fullFetches) != n {
		t.Errorf("origin saw %d distinct objects, want %d", len(fullFetches), n)
	}
	mu.Unlock()

	// Two-tier agreement: after the write-behind drains, every object
	// lives in memory, on disk, or both — none were lost.
	px.FlushDisk()
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("/w/%d", i)
		_, onDisk := px.disk.Meta(k)
		if px.lookup(k) == nil && !onDisk {
			t.Errorf("%s vanished from both tiers", k)
		}
	}
}

// TestGraceWindowSkipsStaleRecords: records whose last validation is
// older than DiskGrace must not come back warm (that would silently
// widen Δt); they stay demoted and are promoted through a validating
// fetch on demand.
func TestGraceWindowSkipsStaleRecords(t *testing.T) {
	clk := newSimClock()
	dir := t.TempDir()

	origin := webserver.NewOrigin(webserver.WithClock(clk.Now))
	originSrv := httptest.NewServer(origin)
	defer originSrv.Close()
	u, err := url.Parse(originSrv.URL)
	if err != nil {
		t.Fatal(err)
	}
	origin.Set("/stale", []byte("stale body"), "text/plain")

	cfg := Config{
		Origin:       u,
		Clock:        clk.Now,
		PollWorkers:  1,
		DefaultDelta: 30 * time.Second,
		Bounds:       core.TTRBounds{Min: 10 * time.Second, Max: 10 * time.Minute},
		DiskDir:      dir,
		DiskGrace:    time.Minute,
	}
	px1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	px1.Start()
	clk.AdvanceTo(clk.base.Add(admissionPhase))
	if code, _, _ := proxyGet(t, px1, "/stale"); code != 200 {
		t.Fatalf("admission: %d", code)
	}
	quiesceSim(t, px1, clk)
	px1.Close()

	// Ten minutes of downtime blow way past the one-minute grace.
	clk.AdvanceTo(clk.Now().Add(10 * time.Minute))

	px2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer px2.Close()
	px2.Start()
	if got := px2.Len(); got != 0 {
		t.Fatalf("%d objects rehydrated past the grace window, want 0", got)
	}
	if got := px2.DiskStats().Rehydrated; got != 0 {
		t.Errorf("DiskStats.Rehydrated = %d, want 0", got)
	}

	// On demand the record promotes — validated first, so the serve is a
	// MISS (never GRACE) and Δt holds from the first byte.
	code, body, hdr := proxyGet(t, px2, "/stale")
	if code != 200 || body != "stale body" {
		t.Fatalf("promote-on-demand: %d %q", code, body)
	}
	if xc := hdr.Get("X-Cache"); xc != "MISS" {
		t.Errorf("promoted serve labeled %q, want MISS", xc)
	}
	if got := px2.DiskStats().Promotions; got != 1 {
		t.Errorf("DiskStats.Promotions = %d, want 1", got)
	}
	if got, _, _ := proxyGet(t, px2, "/stale"); got != 200 {
		t.Errorf("re-serve after promotion: %d", got)
	}
}

// TestEvictPurgesBothTiers: admin eviction must not leave a disk record
// behind (the next request would resurrect supposedly-evicted content),
// and its return value distinguishes residency in either tier from a
// miss on both.
func TestEvictPurgesBothTiers(t *testing.T) {
	var mu sync.Mutex
	fetches := 0
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		fetches++
		mu.Unlock()
		fmt.Fprint(w, "evictable")
	})
	px, _ := newHandlerProxy(t, handler, Config{
		Bounds:       noRefreshBounds,
		DefaultDelta: time.Hour,
		DiskDir:      t.TempDir(),
	})

	if code, _, _ := proxyGet(t, px, "/e/1"); code != 200 {
		t.Fatal("admission failed")
	}
	px.FlushDisk()
	if _, ok := px.disk.Meta("/e/1"); !ok {
		t.Fatal("admitted object never reached the disk tier")
	}

	if !px.Evict("/e/1") {
		t.Fatal("Evict(/e/1) reported nothing to evict")
	}
	if _, ok := px.disk.Meta("/e/1"); ok {
		t.Error("disk record survived the eviction")
	}
	if px.Evict("/e/1") {
		t.Error("second Evict reported success on a key gone from both tiers")
	}
	if px.Evict("/never-seen") {
		t.Error("Evict of a never-cached key reported success")
	}

	// The re-request is a cold fetch — nothing resurrects from disk.
	if code, body, _ := proxyGet(t, px, "/e/1"); code != 200 || body != "evictable" {
		t.Fatalf("re-request after eviction: %d %q", code, body)
	}
	mu.Lock()
	if fetches != 2 {
		t.Errorf("origin fetched %d times, want 2 (evicted content must not come back from disk)", fetches)
	}
	mu.Unlock()
	px.FlushDisk()
	if px.DiskStats().Deletes == 0 {
		t.Error("DiskStats.Deletes = 0 after a two-tier eviction")
	}
}

// countingOrigin serves one body per path with a Last-Modified date,
// answers If-Modified-Since with 304, and counts every request and
// every conditional request per path.
type countingOrigin struct {
	mu       sync.Mutex
	bodies   map[string]string
	lastMods map[string]time.Time
	reqs     map[string]int
	conds    map[string]int
}

func newCountingOrigin() *countingOrigin {
	return &countingOrigin{
		bodies:   make(map[string]string),
		lastMods: make(map[string]time.Time),
		reqs:     make(map[string]int),
		conds:    make(map[string]int),
	}
}

// set publishes body under path, last modified at lm.
func (o *countingOrigin) set(path, body string, lm time.Time) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.bodies[path] = body
	o.lastMods[path] = lm
}

// counts returns the requests and conditional requests seen for path.
func (o *countingOrigin) counts(path string) (reqs, conds int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.reqs[path], o.conds[path]
}

func (o *countingOrigin) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	o.mu.Lock()
	defer o.mu.Unlock()
	body, ok := o.bodies[r.URL.Path]
	if !ok {
		http.NotFound(w, r)
		return
	}
	o.reqs[r.URL.Path]++
	lm := o.lastMods[r.URL.Path]
	w.Header().Set("Last-Modified", lm.UTC().Format(http.TimeFormat))
	if ims := r.Header.Get("If-Modified-Since"); ims != "" {
		o.conds[r.URL.Path]++
		if since, err := http.ParseTime(ims); err == nil && !lm.After(since) {
			w.WriteHeader(http.StatusNotModified)
			return
		}
	}
	w.Header().Set("Content-Type", "text/plain")
	fmt.Fprint(w, body)
}

// kib returns a 1 KiB body naming path.
func kib(path string) string {
	b := "body of " + path + " "
	for len(b) < 1024 {
		b += "x"
	}
	return b
}

// newDiskSimProxy starts a disk-tier proxy over h on the stepped clock,
// with TTRs between 10s and 10m, and advances the clock off the epoch.
func newDiskSimProxy(t *testing.T, h http.Handler, clk *simClock, cfg Config) *Proxy {
	t.Helper()
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	u, err := url.Parse(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Origin = u
	cfg.Clock = clk.Now
	cfg.PollWorkers = 1
	cfg.DefaultDelta = 30 * time.Second
	cfg.Bounds = core.TTRBounds{Min: 10 * time.Second, Max: 10 * time.Minute}
	if cfg.DiskDir == "" {
		cfg.DiskDir = t.TempDir()
	}
	px, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	px.Start()
	t.Cleanup(px.Close)
	clk.AdvanceTo(clk.base.Add(admissionPhase))
	return px
}

// oneKiBObject is a byte budget that holds exactly one kib body: each
// admission demotes the previous resident.
const oneKiBObject = 1024 + entryOverhead + 512

// demoteBy requests other so that key (the only other resident under
// oneKiBObject) is demoted, and returns key's disk record.
func demoteBy(t *testing.T, px *Proxy, key, other string) diskstore.Record {
	t.Helper()
	if code, _, _ := proxyGet(t, px, other); code != 200 {
		t.Fatalf("GET %s: %d", other, code)
	}
	if px.lookup(key) != nil {
		t.Fatalf("%s still resident after admitting %s", key, other)
	}
	rec, ok := px.disk.Meta(key)
	if !ok {
		t.Fatalf("%s has no disk record after demotion", key)
	}
	return rec
}

// TestFreshPromotionSkipsUpstreamWithinTTR: a demoted record validated
// by this process less than its TTR ago comes back with no upstream
// request — the body byte-identical, the next poll booked at exactly
// ValidatedAt + TTR, where the resident schedule had it — and from that
// instant on the same promotion validates with one conditional fetch.
func TestFreshPromotionSkipsUpstreamWithinTTR(t *testing.T) {
	clk := newSimClock()
	lm := clk.base.Add(-time.Hour)
	o := newCountingOrigin()
	o.set("/a", kib("/a"), lm)
	o.set("/b", kib("/b"), lm)
	var mu sync.Mutex
	observed := make(map[string]int)
	px := newDiskSimProxy(t, o, clk, Config{
		MaxBytes: oneKiBObject,
		Shards:   1,
		PollObserver: func(ob PollObservation) {
			mu.Lock()
			observed[ob.Key]++
			mu.Unlock()
		},
	})

	if code, body, _ := proxyGet(t, px, "/a"); code != 200 || body != kib("/a") {
		t.Fatalf("admission of /a: %d", code)
	}
	rec := demoteBy(t, px, "/a", "/b")
	if rec.TTR <= 0 || rec.Group != "" {
		t.Fatalf("record %+v cannot exercise the fresh rule", rec)
	}
	due := rec.ValidatedAt.Add(rec.TTR)

	clk.AdvanceTo(due.Add(-time.Second))
	code, body, hdr := proxyGet(t, px, "/a")
	if code != 200 || body != kib("/a") {
		t.Fatalf("fresh promotion of /a: %d, body intact %v", code, body == kib("/a"))
	}
	if xc := hdr.Get("X-Cache"); xc != "MISS" {
		t.Errorf("fresh promotion labeled %q, want MISS", xc)
	}
	if reqs, _ := o.counts("/a"); reqs != 1 {
		t.Errorf("origin saw %d requests for /a, want 1 (the admission only)", reqs)
	}
	mu.Lock()
	if got := observed["/a"]; got != 1 {
		t.Errorf("/a observed %d polls, want 1 (a fresh promotion polls nothing)", got)
	}
	mu.Unlock()
	if px.lookup("/b") != nil {
		t.Fatal("/b still resident: the budget holds more than one object")
	}
	if at, ok := px.NextRefreshAt(); !ok || !at.Equal(due) {
		t.Errorf("next refresh at %v (ok=%v), want ValidatedAt+TTR = %v", at, ok, due)
	}
	if ds := px.DiskStats(); ds.Promotions != 1 || ds.FreshPromotions != 1 {
		t.Errorf("DiskStats promotions=%d fresh=%d, want 1 and 1", ds.Promotions, ds.FreshPromotions)
	}

	// /b promotes fresh too (same record age), demoting /a again; at the
	// due instant /b's own poll runs, and /a's record is no longer fresh.
	demoteBy(t, px, "/a", "/b")
	clk.AdvanceTo(due)
	px.Kick()
	quiesceSim(t, px, clk)
	if code, body, _ := proxyGet(t, px, "/a"); code != 200 || body != kib("/a") {
		t.Fatalf("validating promotion of /a: %d", code)
	}
	if reqs, conds := o.counts("/a"); reqs != 2 || conds != 1 {
		t.Errorf("origin saw %d requests (%d conditional) for /a, want 2 (1)", reqs, conds)
	}
	if ds := px.DiskStats(); ds.Promotions != 3 || ds.FreshPromotions != 2 {
		t.Errorf("DiskStats promotions=%d fresh=%d, want 3 and 2", ds.Promotions, ds.FreshPromotions)
	}
}

// TestPromotionValidatesRecordsItCannotVouchFor: every record the fresh
// rule excludes promotes through exactly one conditional fetch, even
// inside its TTR; the control record, identical but for the excluded
// property, promotes with none.
func TestPromotionValidatesRecordsItCannotVouchFor(t *testing.T) {
	cases := []struct {
		name  string
		edit  func(rec *diskstore.Record, px *Proxy, now time.Time)
		conds int
	}{
		{"fresh", func(*diskstore.Record, *Proxy, time.Time) {}, 0},
		{"ttr lapsed", func(rec *diskstore.Record, _ *Proxy, now time.Time) { rec.ValidatedAt = now.Add(-rec.TTR) }, 1},
		{"previous process", func(rec *diskstore.Record, px *Proxy, _ time.Time) { rec.ValidatedAt = px.epoch.Add(-time.Second) }, 1},
		{"grouped", func(rec *diskstore.Record, _ *Proxy, _ time.Time) { rec.Group = "g" }, 1},
		// Stamped a second ahead, as after a wall clock steps back: the
		// TTR window alone would still call it fresh.
		{"ttr zero", func(rec *diskstore.Record, _ *Proxy, now time.Time) {
			rec.TTR, rec.ValidatedAt = 0, now.Add(time.Second)
		}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clk := newSimClock()
			lm := clk.base.Add(-time.Hour)
			o := newCountingOrigin()
			o.set("/r", kib("/r"), lm)
			px := newDiskSimProxy(t, o, clk, Config{})
			now := clk.Now()
			rec := diskstore.Record{
				Key: "/r", ContentType: "text/plain",
				LastMod: lm, HasLastMod: true,
				ValidatedAt: now, TTR: time.Minute, Delta: 30 * time.Second,
			}
			tc.edit(&rec, px, now)
			px.disk.Put(rec, []byte(kib("/r")))

			if code, body, _ := proxyGet(t, px, "/r"); code != 200 || body != kib("/r") {
				t.Fatalf("promotion of /r: %d", code)
			}
			if reqs, conds := o.counts("/r"); reqs != tc.conds || conds != tc.conds {
				t.Errorf("origin saw %d requests (%d conditional), want %d conditional only", reqs, conds, tc.conds)
			}
			if ds := px.DiskStats(); ds.Promotions != 1 || ds.FreshPromotions != uint64(1-tc.conds) {
				t.Errorf("DiskStats promotions=%d fresh=%d", ds.Promotions, ds.FreshPromotions)
			}
		})
	}
}

// TestInvalidationWhileDemotedForcesValidation: an invalidation-only
// event for a demoted key cannot land on its disk record, so it marks
// the record stale — the next promotion validates with one conditional
// fetch even inside the TTR, and consumes the mark.
func TestInvalidationWhileDemotedForcesValidation(t *testing.T) {
	clk := newSimClock()
	lm := clk.base.Add(-time.Hour)
	o := newCountingOrigin()
	o.set("/a", kib("/a"), lm)
	o.set("/b", kib("/b"), lm)
	px := newDiskSimProxy(t, o, clk, Config{MaxBytes: oneKiBObject, Shards: 1})

	proxyGet(t, px, "/a")
	demoteBy(t, px, "/a", "/b")
	px.handlePushEvent(push.Event{Kind: push.KindUpdate, Key: "/a", Seq: 1})
	if got := px.PushStats().Dropped; got != 1 {
		t.Errorf("Dropped = %d, want 1 (the object was not resident)", got)
	}
	if code, body, _ := proxyGet(t, px, "/a"); code != 200 || body != kib("/a") {
		t.Fatalf("promotion of /a: %d", code)
	}
	if reqs, conds := o.counts("/a"); reqs != 2 || conds != 1 {
		t.Errorf("origin saw %d requests (%d conditional) for /a, want 2 (1)", reqs, conds)
	}

	// The validation consumed the mark: the next demotion inside the TTR
	// promotes fresh.
	demoteBy(t, px, "/a", "/b")
	proxyGet(t, px, "/a")
	if reqs, _ := o.counts("/a"); reqs != 2 {
		t.Errorf("origin saw %d requests for /a, want 2 (the mark outlived its validation)", reqs)
	}
	if ds := px.DiskStats(); ds.FreshPromotions != 2 {
		t.Errorf("FreshPromotions = %d, want 2 (/b, then /a)", ds.FreshPromotions)
	}
}

// TestRefreshLostToEvictionNeverPromotesOldRecord: a pushed poll
// fetches a body too large to stay resident, so the entry leaves the
// store before the refresh can persist it. The disk record still holds
// the older version, inside its TTR; it must not come back fresh —
// every request serves the newer body, uncached.
func TestRefreshLostToEvictionNeverPromotesOldRecord(t *testing.T) {
	clk := newSimClock()
	o := newCountingOrigin()
	o.set("/g", "small", clk.base.Add(-time.Hour))
	px := newDiskSimProxy(t, o, clk, Config{MaxBytes: 4096})

	if code, body, _ := proxyGet(t, px, "/g"); code != 200 || body != "small" {
		t.Fatalf("admission of /g: %d %q", code, body)
	}
	big := strings.Repeat("B", 8192)
	o.set("/g", big, clk.base)
	px.handlePushEvent(push.Event{Kind: push.KindUpdate, Key: "/g", Seq: 1})
	quiesceSim(t, px, clk)
	if px.lookup("/g") != nil {
		t.Fatal("/g still resident after growing past MaxBytes")
	}
	px.FlushDisk()
	if _, body, ok := px.disk.Get("/g"); !ok || string(body) != "small" {
		t.Fatalf("disk record: ok=%v body %q, want the old version", ok, body)
	}
	for i := 0; i < 2; i++ {
		code, body, hdr := proxyGet(t, px, "/g")
		if code != 200 || body != big {
			t.Fatalf("request %d: %d, served the new body %v", i, code, body == big)
		}
		if xc := hdr.Get("X-Cache"); xc != "BYPASS" {
			t.Errorf("request %d labeled %q, want BYPASS", i, xc)
		}
	}
	if ds := px.DiskStats(); ds.FreshPromotions != 0 {
		t.Errorf("FreshPromotions = %d, want 0", ds.FreshPromotions)
	}
}

// TestRecordDigestIsPushDigest pins the identity promote relies on to
// skip a rehash: a disk record's digest is the full hex SHA-256 of the
// body, and push.DigestOf is its first 16 hex characters.
func TestRecordDigestIsPushDigest(t *testing.T) {
	ds, err := diskstore.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	for i, b := range [][]byte{nil, []byte("x"), []byte(kib("/d")), make([]byte, 70_000)} {
		key := fmt.Sprintf("/d/%d", i)
		ds.Put(diskstore.Record{Key: key}, b)
		rec, body, ok := ds.Get(key)
		if !ok {
			t.Fatalf("%s: record unreadable", key)
		}
		sum := sha256.Sum256(body)
		if got, want := push.DigestOf(b), hex.EncodeToString(sum[:])[:16]; got != want {
			t.Errorf("%s: DigestOf = %s, want %s", key, got, want)
		}
		if got, want := recordDigest(rec), push.DigestOf(b); got != want {
			t.Errorf("%s: recordDigest = %q, want DigestOf %q", key, got, want)
		}
	}
}

// TestInvalidationsDuringDemotionChurnLeaveNoStaleCopy races demotion
// churn (requests over a key space four times the byte budget) against
// origin updates announced by invalidation-only events, under hour-long
// TTRs so no regular poll can rescue a missed update. Once the proxy is
// quiet, every key must serve its latest version: an event that found
// its object demoted, or raced its admission or promotion, or was owed
// by a pushed job whose entry was demoted first, must still have
// reached it.
func TestInvalidationsDuringDemotionChurnLeaveNoStaleCopy(t *testing.T) {
	for _, pushValues := range []bool{false, true} {
		t.Run(fmt.Sprintf("PushValues=%v", pushValues), func(t *testing.T) {
			const keys = 32
			o := newCountingOrigin()
			base := time.Unix(1_600_000_000, 0)
			var verMu sync.Mutex
			version := make([]int, keys)
			body := func(i, v int) string { return fmt.Sprintf("%s v%d", kib(fmt.Sprintf("/c/%d", i)), v) }
			for i := 0; i < keys; i++ {
				o.set(fmt.Sprintf("/c/%d", i), body(i, 0), base)
			}
			px, _ := newHandlerProxy(t, o, Config{
				MaxBytes:     8 * oneKiBObject,
				Shards:       4,
				PollWorkers:  2,
				Bounds:       noRefreshBounds,
				DefaultDelta: time.Hour,
				DiskDir:      t.TempDir(),
				PushValues:   pushValues,
			})

			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed))
					for n := 0; n < 300; n++ {
						if code, _, _ := proxyGet(t, px, fmt.Sprintf("/c/%d", rng.Intn(keys))); code != 200 {
							t.Errorf("status %d", code)
							return
						}
					}
				}(int64(g))
			}
			rng := rand.New(rand.NewSource(99))
			for n := 1; n <= 150; n++ {
				i := rng.Intn(keys)
				verMu.Lock()
				version[i]++
				v := version[i]
				verMu.Unlock()
				key := fmt.Sprintf("/c/%d", i)
				o.set(key, body(i, v), base.Add(time.Duration(n)*time.Second))
				px.handlePushEvent(push.Event{Kind: push.KindUpdate, Key: key, Seq: uint64(n)})
			}
			wg.Wait()

			deadline := time.Now().Add(10 * time.Second)
			for {
				next, ok := px.NextRefreshAt()
				if px.InFlightPolls() == 0 && (!ok || next.After(time.Now())) {
					break
				}
				if time.Now().After(deadline) {
					t.Fatal("proxy never quiesced")
				}
				time.Sleep(time.Millisecond)
			}
			for i := 0; i < keys; i++ {
				if _, got, _ := proxyGet(t, px, fmt.Sprintf("/c/%d", i)); got != body(i, version[i]) {
					t.Errorf("/c/%d served %q, want version %d", i, got[len(got)-4:], version[i])
				}
			}
			if ds := px.DiskStats(); ds.Demotions == 0 || ds.FreshPromotions == 0 {
				t.Errorf("churn never exercised fresh promotion: %+v", ds)
			}
		})
	}
}

// TestInvalidationDuringFetchIsNotLost pins the window an upstream
// fetch opens: the origin updates the object and announces it while
// the proxy's admission (or validating promotion) fetch is in flight,
// and that fetch still returns the old version. The event finds nothing
// resident, yet the installed copy must be polled once more, so the
// update is served as soon as the proxy is quiet.
func TestInvalidationDuringFetchIsNotLost(t *testing.T) {
	for _, tc := range []struct {
		name         string
		disk, onDisk bool
	}{
		{"onDisk=false", true, false},
		{"onDisk=true", true, true},
		{"memoryOnly", false, false},
	} {
		onDisk := tc.onDisk
		t.Run(tc.name, func(t *testing.T) {
			lm := time.Unix(1_600_000_000, 0)
			var mu sync.Mutex
			body, reqs := "v0", 0
			var px *Proxy
			handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				mu.Lock()
				reqs++
				served, servedLM, first := body, lm, reqs == 1
				if first {
					// The update lands after this response was produced.
					body, lm = "v1", lm.Add(time.Second)
				}
				mu.Unlock()
				if first {
					px.handlePushEvent(push.Event{Kind: push.KindUpdate, Key: "/x", Seq: 1})
				}
				w.Header().Set("Last-Modified", servedLM.UTC().Format(http.TimeFormat))
				if since, err := http.ParseTime(r.Header.Get("If-Modified-Since")); err == nil && !servedLM.After(since) {
					w.WriteHeader(http.StatusNotModified)
					return
				}
				fmt.Fprint(w, served)
			})
			cfg := Config{Bounds: noRefreshBounds, DefaultDelta: time.Hour}
			if tc.disk {
				cfg.DiskDir = t.TempDir()
			}
			px, _ = newHandlerProxy(t, handler, cfg)
			if onDisk {
				// A record from an earlier process: it promotes through a
				// validating fetch.
				px.disk.Put(diskstore.Record{
					Key: "/x", LastMod: lm, HasLastMod: true,
					ValidatedAt: px.epoch.Add(-time.Second), TTR: time.Hour,
				}, []byte("v0"))
			}
			if _, got, _ := proxyGet(t, px, "/x"); got != "v0" {
				t.Fatalf("first serve = %q, want the fetched v0", got)
			}
			deadline := time.Now().Add(5 * time.Second)
			for {
				_, got, _ := proxyGet(t, px, "/x")
				if got == "v1" && px.InFlightPolls() == 0 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("still serving %q: the update announced mid-fetch was lost", got)
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}

// TestInvalidationAtFetchedVersionCostsNoPoll: an invalidation that
// races an admission but announces the very version the fetch returned
// is a duplicate (origins modify strictly forward), so the admitted copy
// is current and no second request is owed.
func TestInvalidationAtFetchedVersionCostsNoPoll(t *testing.T) {
	lm := time.Unix(1_600_000_000, 0)
	var mu sync.Mutex
	reqs := 0
	var px *Proxy
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		reqs++
		first := reqs == 1
		mu.Unlock()
		if first {
			px.handlePushEvent(push.Event{Kind: push.KindUpdate, Key: "/x", Seq: 1, ModTime: lm})
		}
		w.Header().Set("Last-Modified", lm.UTC().Format(http.TimeFormat))
		fmt.Fprint(w, "v0")
	})
	px, _ = newHandlerProxy(t, handler, Config{Bounds: noRefreshBounds, DefaultDelta: time.Hour})
	if _, got, _ := proxyGet(t, px, "/x"); got != "v0" {
		t.Fatalf("first serve = %q, want v0", got)
	}
	if polls := px.PushStats().Polls; polls != 0 {
		t.Errorf("%d pushed polls queued for a duplicate announcement", polls)
	}
	px.staleMu.Lock()
	left := len(px.staleMarks)
	px.staleMu.Unlock()
	if left != 0 {
		t.Errorf("%d stale marks left after the admission consumed its own", left)
	}
	mu.Lock()
	defer mu.Unlock()
	if reqs != 1 {
		t.Errorf("origin saw %d requests, want only the admission", reqs)
	}
}

// TestDiskStaleOverflowRaisesFloor: the stale-record set stays bounded;
// overflowing it forgets the individual marks but makes every record
// validated up to that instant validate on promotion, so no mark is
// lost in effect.
func TestDiskStaleOverflowRaisesFloor(t *testing.T) {
	clk := newSimClock()
	px := newDiskSimProxy(t, newCountingOrigin(), clk, Config{})
	validated := clk.Now()
	for i := 0; i <= staleMarkMax; i++ {
		key := fmt.Sprintf("/o/%d", i)
		px.disk.Put(diskstore.Record{Key: key, ValidatedAt: validated, TTR: time.Hour}, []byte("b"))
		px.markStale(key, time.Time{})
	}
	px.staleMu.Lock()
	n := len(px.staleMarks)
	px.staleMu.Unlock()
	if n > staleMarkMax {
		t.Fatalf("stale set holds %d keys, bound %d", n, staleMarkMax)
	}
	if _, marked := px.takeStale("/o/0", validated); !marked {
		t.Error("a mark forgotten by the overflow no longer forces validation")
	}
	if _, marked := px.takeStale("/o/0", validated.Add(time.Nanosecond)); marked {
		t.Error("a record validated after the overflow is still forced to validate")
	}
	if _, marked := px.takeStale(fmt.Sprintf("/o/%d", staleMarkMax), validated.Add(time.Second)); !marked {
		t.Error("the mark that overflowed the set was dropped")
	}
}

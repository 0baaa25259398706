package ops

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"broadway/internal/core"
	"broadway/internal/webproxy"
	"broadway/internal/webserver"
)

// waitFor polls cond every few milliseconds until it holds or the
// timeout expires.
func waitFor(t *testing.T, timeout time.Duration, cond func() bool) bool {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(5 * time.Millisecond)
	}
	return cond()
}

// opsSetup is an origin → proxy pair with an ops handler over both,
// wired like a single edge node.
type opsSetup struct {
	origin    *webserver.Origin
	originSrv *httptest.Server
	proxy     *webproxy.Proxy
	proxySrv  *httptest.Server
	handler   *Handler
}

func newOpsSetup(t *testing.T, cfg webproxy.Config, push bool, token string) *opsSetup {
	t.Helper()
	origin := webserver.NewOrigin(
		webserver.WithHistoryExtension(true),
		webserver.WithPushHeartbeat(25*time.Millisecond),
	)
	originSrv := httptest.NewServer(origin)
	t.Cleanup(originSrv.Close)

	originURL, err := url.Parse(originSrv.URL)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Origin = originURL
	if push {
		pushURL, _ := url.Parse(originSrv.URL + "/events")
		cfg.PushURL = pushURL
	}
	if cfg.PushBackoffMin == 0 {
		cfg.PushBackoffMin = 5 * time.Millisecond
	}
	if cfg.PushBackoffMax == 0 {
		cfg.PushBackoffMax = 50 * time.Millisecond
	}
	if cfg.PushHeartbeatTimeout == 0 {
		cfg.PushHeartbeatTimeout = 200 * time.Millisecond
	}
	if cfg.Bounds == (core.TTRBounds{}) {
		cfg.Bounds = core.TTRBounds{Min: 50 * time.Millisecond, Max: 400 * time.Millisecond}
	}
	if cfg.DefaultDelta == 0 {
		cfg.DefaultDelta = 50 * time.Millisecond
	}
	px, err := webproxy.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	px.Start()
	t.Cleanup(px.Close)
	proxySrv := httptest.NewServer(px)
	t.Cleanup(proxySrv.Close)

	h, err := NewHandler(Config{Proxy: px, Origin: origin, Token: token})
	if err != nil {
		t.Fatal(err)
	}
	s := &opsSetup{origin: origin, originSrv: originSrv, proxy: px, proxySrv: proxySrv, handler: h}
	if push && !waitFor(t, 3*time.Second, func() bool { return px.PushStats().Connected }) {
		t.Fatal("push channel never connected")
	}
	return s
}

func (s *opsSetup) get(t *testing.T, path string) string {
	t.Helper()
	resp, err := http.Get(s.proxySrv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s (%s)", path, resp.Status, body)
	}
	return string(body)
}

// do drives the ops handler directly (no listener needed).
func (s *opsSetup) do(method, target string, header http.Header) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, target, nil)
	for k, vs := range header {
		req.Header[k] = vs
	}
	rec := httptest.NewRecorder()
	s.handler.ServeHTTP(rec, req)
	return rec
}

func (s *opsSetup) scrape(t *testing.T) *Scrape {
	t.Helper()
	rec := s.do(http.MethodGet, "/metrics", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("/metrics Content-Type = %q", ct)
	}
	sc, err := ParseExposition(rec.Body)
	if err != nil {
		t.Fatalf("/metrics unparseable: %v", err)
	}
	return sc
}

// TestMetricsMonotoneAcrossKillRevive is satellite coverage for the
// scrape itself: every scrape across a kill/revive cycle parses under
// the strict rules, and no counter-typed series ever decreases.
func TestMetricsMonotoneAcrossKillRevive(t *testing.T) {
	s := newOpsSetup(t, webproxy.Config{}, true, "")
	s.origin.Set("/a", []byte("a1"), "")
	s.origin.Set("/b", []byte("b1"), "")
	s.get(t, "/a")
	s.get(t, "/b")

	prev := s.scrape(t)
	step := func(name string) {
		t.Helper()
		cur := s.scrape(t)
		for key, was := range prev.Values {
			family := key
			if i := strings.IndexByte(key, '{'); i >= 0 {
				family = key[:i]
			}
			if cur.Types[family] != "counter" {
				continue
			}
			now, ok := cur.Values[key]
			if !ok {
				t.Errorf("%s: counter series %s disappeared", name, key)
				continue
			}
			if now < was {
				t.Errorf("%s: counter %s went backwards: %v -> %v", name, key, was, now)
			}
		}
		prev = cur
	}

	s.origin.Set("/a", []byte("a2"), "")
	waitFor(t, 2*time.Second, func() bool { return s.proxy.PushStats().Events >= 1 })
	step("after churn")

	s.origin.SetPushAvailable(false)
	waitFor(t, 2*time.Second, func() bool { return !s.proxy.PushStats().Connected })
	step("after kill")

	s.origin.SetPushAvailable(true)
	waitFor(t, 2*time.Second, func() bool { return s.proxy.PushStats().Connected })
	s.origin.Set("/b", []byte("b2"), "")
	waitFor(t, 2*time.Second, func() bool { return s.proxy.PushStats().Events >= 2 })
	step("after revive")

	// The cycle must be visible in the scrape: at least one fallback and
	// at least two connects.
	if v, _ := prev.Value("broadway_push_fallbacks_total"); v < 1 {
		t.Errorf("fallbacks after kill = %v, want >= 1", v)
	}
	if v, _ := prev.Value("broadway_push_connects_total"); v < 2 {
		t.Errorf("connects after revive = %v, want >= 2", v)
	}
}

// TestCacheHitsCounterSurvivesEviction checks that the hit counter is
// monotonic: evicting objects — by replacement or by the admin action —
// must not take their hits out of CacheStats().Hits or the scraped
// broadway_cache_hits_total, which rate() would read as a reset.
func TestCacheHitsCounterSurvivesEviction(t *testing.T) {
	s := newOpsSetup(t, webproxy.Config{MaxObjects: 2}, false, "")
	for _, k := range []string{"/a", "/b", "/c"} {
		s.origin.Set(k, []byte(k), "")
	}
	s.get(t, "/a") // miss
	s.get(t, "/a") // hit
	s.get(t, "/b") // miss
	s.get(t, "/b") // hit
	s.get(t, "/b") // hit
	const want = 3
	check := func(stage string) {
		t.Helper()
		if got := s.proxy.CacheStats().Hits; got != want {
			t.Errorf("%s: CacheStats().Hits = %d, want %d", stage, got, want)
		}
		if got, _ := s.scrape(t).Value("broadway_cache_hits_total"); got != want {
			t.Errorf("%s: broadway_cache_hits_total = %v, want %d", stage, got, want)
		}
	}
	check("before eviction")

	s.get(t, "/c") // admission over MaxObjects evicts a hit object
	if s.proxy.CacheStats().Evictions == 0 {
		t.Fatal("admitting a third object under MaxObjects=2 evicted nothing")
	}
	check("after replacement")

	for _, k := range []string{"/a", "/b", "/c"} {
		s.do(http.MethodPost, "/admin/evict?key="+k, nil)
	}
	if n := s.proxy.Len(); n != 0 {
		t.Fatalf("%d objects still resident after admin evictions", n)
	}
	check("after admin eviction")
}

// TestHealthzFlipsDegradedOnPushLoss: /healthz reports ok while the
// channel is healthy and flips to 503/degraded as soon as the origin
// withdraws the event endpoint — within one heartbeat, not one TTR.
func TestHealthzFlipsDegradedOnPushLoss(t *testing.T) {
	s := newOpsSetup(t, webproxy.Config{}, true, "")
	s.origin.Set("/a", []byte("a1"), "")
	s.get(t, "/a")

	rec := s.do(http.MethodGet, "/healthz", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("healthy /healthz = %d (%s)", rec.Code, rec.Body)
	}
	var h Health
	if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
		t.Fatalf("healthz JSON: %v", err)
	}
	if h.Status != StatusOK || h.Push == nil || h.Push.Status != StatusOK {
		t.Fatalf("healthy state = %+v", h)
	}

	// The overall status may degrade first via the origin-hub check (the
	// endpoint is withdrawn immediately); the proxy's own push check must
	// follow as soon as its stream dies.
	s.origin.SetPushAvailable(false)
	flipped := waitFor(t, 2*time.Second, func() bool {
		rec := s.do(http.MethodGet, "/healthz", nil)
		if rec.Code != http.StatusServiceUnavailable {
			return false
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
			return false
		}
		return h.Status == StatusDegraded && h.Push != nil &&
			h.Push.Status == StatusDegraded && !h.Push.Connected
	})
	if !flipped {
		t.Fatalf("push check never degraded after SetPushAvailable(false); last state %+v", h)
	}

	s.origin.SetPushAvailable(true)
	recovered := waitFor(t, 2*time.Second, func() bool {
		return s.do(http.MethodGet, "/healthz", nil).Code == http.StatusOK
	})
	if !recovered {
		t.Fatal("/healthz never recovered after revive")
	}
}

// TestHealthzReportsUpstreamDegraded: a failing upstream turns the
// upstream check degraded, and the error detail lives here (the
// operator surface), with a recovery flipping it back.
func TestHealthzReportsUpstreamDegraded(t *testing.T) {
	s := newOpsSetup(t, webproxy.Config{}, false, "")
	s.origin.Set("/a", []byte("a1"), "")
	s.get(t, "/a")
	if rec := s.do(http.MethodGet, "/healthz", nil); rec.Code != http.StatusOK {
		t.Fatalf("/healthz with healthy upstream = %d", rec.Code)
	}

	// Kill the origin listener: the next miss fails its upstream fetch.
	s.originSrv.CloseClientConnections()
	s.originSrv.Close()
	resp, err := http.Get(s.proxySrv.URL + "/never-cached")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("miss against dead origin = %d", resp.StatusCode)
	}
	// Satellite 2: the client body stays generic; the detail is internal.
	if strings.Contains(string(body), "connection refused") {
		t.Errorf("502 body leaks upstream error detail: %q", body)
	}

	rec := s.do(http.MethodGet, "/healthz", nil)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("/healthz after upstream failure = %d (%s)", rec.Code, rec.Body)
	}
	var h Health
	if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	if h.Upstream == nil || h.Upstream.Status != StatusDegraded {
		t.Fatalf("upstream check = %+v", h.Upstream)
	}
	if h.Upstream.Errors == 0 || h.Upstream.LastError == "" {
		t.Errorf("upstream detail missing from operator surface: %+v", h.Upstream)
	}
}

// TestAdminEvictMirrorsProxyEvict is the satellite-4 evict battery: an
// admin evict behaves exactly like Proxy.Evict — the re-request after it
// costs exactly one origin fetch.
func TestAdminEvictMirrorsProxyEvict(t *testing.T) {
	s := newOpsSetup(t, webproxy.Config{}, false, "")
	s.origin.Set("/obj", []byte("v1"), "")
	s.get(t, "/obj") // admit: one origin poll
	s.get(t, "/obj") // hit: zero polls
	base := s.origin.Polls()

	rec := s.do(http.MethodPost, "/admin/evict?key=/obj", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("/admin/evict = %d (%s)", rec.Code, rec.Body)
	}
	var res EvictResult
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Evicted || res.Key != "/obj" {
		t.Fatalf("evict result = %+v", res)
	}

	s.get(t, "/obj")
	if polls := s.origin.Polls(); polls != base+1 {
		t.Errorf("re-request after evict cost %d origin fetches, want exactly 1", polls-base)
	}

	// Evicting a non-resident key reports false rather than erroring.
	rec = s.do(http.MethodPost, "/admin/evict?key=/obj", nil)
	// The re-request above re-admitted /obj, so evict again first.
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil || !res.Evicted {
		t.Fatalf("second evict = %v %+v", err, res)
	}
	rec = s.do(http.MethodPost, "/admin/evict?key=/obj", nil)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("evict of non-resident key = %d, want 404 so operators can tell a typo from an evict", rec.Code)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil || res.Evicted || res.Key != "/obj" {
		t.Fatalf("evict of non-resident key: body = %q (err %v), want JSON EvictResult", rec.Body, err)
	}

	if rec := s.do(http.MethodPost, "/admin/evict", nil); rec.Code != http.StatusBadRequest {
		t.Errorf("evict without key = %d, want 400", rec.Code)
	}
}

// TestAdminAuth is the satellite-4 auth battery: tokenless and
// wrong-token admin calls are refused with 401 and 403, while /metrics
// and /healthz stay open.
func TestAdminAuth(t *testing.T) {
	s := newOpsSetup(t, webproxy.Config{}, false, "open-sesame")

	if rec := s.do(http.MethodGet, "/metrics", nil); rec.Code != http.StatusOK {
		t.Errorf("tokenless /metrics = %d, must never be gated", rec.Code)
	}
	if rec := s.do(http.MethodGet, "/healthz", nil); rec.Code != http.StatusOK {
		t.Errorf("tokenless /healthz = %d, must never be gated", rec.Code)
	}

	rec := s.do(http.MethodGet, "/admin/stats", nil)
	if rec.Code != http.StatusUnauthorized {
		t.Errorf("tokenless admin = %d, want 401", rec.Code)
	}
	if rec.Header().Get("WWW-Authenticate") == "" {
		t.Error("401 without WWW-Authenticate challenge")
	}
	rec = s.do(http.MethodGet, "/admin/stats", http.Header{"Authorization": {"Basic abc"}})
	if rec.Code != http.StatusUnauthorized {
		t.Errorf("non-bearer admin = %d, want 401", rec.Code)
	}
	rec = s.do(http.MethodGet, "/admin/stats", http.Header{"Authorization": {"Bearer wrong"}})
	if rec.Code != http.StatusForbidden {
		t.Errorf("wrong-token admin = %d, want 403", rec.Code)
	}

	rec = s.do(http.MethodGet, "/admin/stats", http.Header{"Authorization": {"Bearer open-sesame"}})
	if rec.Code != http.StatusOK {
		t.Fatalf("authorized admin = %d (%s)", rec.Code, rec.Body)
	}
	var dump StatsDump
	if err := json.Unmarshal(rec.Body.Bytes(), &dump); err != nil {
		t.Fatalf("stats dump JSON: %v", err)
	}
	if dump.Cache == nil || dump.Origin == nil || dump.Upstream == nil {
		t.Errorf("stats dump missing sections: %+v", dump)
	}
}

// TestAdminPprof: the runtime profiles ride the admin bearer gate —
// tokenless requests bounce, authorized ones get real profile data —
// and are never reachable through the open scrape paths.
func TestAdminPprof(t *testing.T) {
	s := newOpsSetup(t, webproxy.Config{}, false, "open-sesame")

	if rec := s.do(http.MethodGet, "/admin/pprof/", nil); rec.Code != http.StatusUnauthorized {
		t.Errorf("tokenless pprof index = %d, want 401", rec.Code)
	}
	auth := http.Header{"Authorization": {"Bearer open-sesame"}}
	rec := s.do(http.MethodGet, "/admin/pprof/", auth)
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "goroutine") {
		t.Errorf("pprof index = %d, body does not list profiles", rec.Code)
	}
	rec = s.do(http.MethodGet, "/admin/pprof/goroutine?debug=1", auth)
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "goroutine") {
		t.Errorf("goroutine profile = %d (%.80q)", rec.Code, rec.Body.String())
	}
	// The mutex profile serves (empty) even before any
	// -mutex-profile-fraction opt-in; contention inspection must not
	// require a restart to at least reach the endpoint.
	if rec = s.do(http.MethodGet, "/admin/pprof/mutex?debug=1", auth); rec.Code != http.StatusOK {
		t.Errorf("mutex profile = %d", rec.Code)
	}
	// Neither the conventional /debug/pprof/ mount nor the scrape paths
	// expose profiles without credentials.
	if rec = s.do(http.MethodGet, "/debug/pprof/", nil); rec.Code != http.StatusNotFound {
		t.Errorf("/debug/pprof/ = %d, want 404 — profiles ride the admin gate only", rec.Code)
	}
}

// TestAdminKillStreams: the kill-streams action severs the origin hub's
// connected streams, and the subscriber reconnects on its own — a
// transient cut, not an outage.
func TestAdminKillStreams(t *testing.T) {
	s := newOpsSetup(t, webproxy.Config{RelayEvents: true}, true, "")
	before := s.proxy.PushStats().Connects

	rec := s.do(http.MethodPost, "/admin/kill-streams", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("/admin/kill-streams = %d (%s)", rec.Code, rec.Body)
	}
	var res KillStreamsResult
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if !res.OriginKilled || !res.RelayKilled {
		t.Fatalf("kill-streams result = %+v, want both stream sets killed", res)
	}
	if !waitFor(t, 3*time.Second, func() bool {
		ps := s.proxy.PushStats()
		return ps.Connected && ps.Connects > before
	}) {
		t.Fatal("subscriber never reconnected after kill-streams")
	}
}

// TestOpsRoutingAndMethods: unknown paths 404, wrong methods get
// conformant 405s with Allow set, HEAD works on the read endpoints.
func TestOpsRoutingAndMethods(t *testing.T) {
	s := newOpsSetup(t, webproxy.Config{}, false, "")

	rec := s.do(http.MethodDelete, "/metrics", nil)
	if rec.Code != http.StatusMethodNotAllowed || rec.Header().Get("Allow") != "GET, HEAD" {
		t.Errorf("DELETE /metrics = %d Allow=%q", rec.Code, rec.Header().Get("Allow"))
	}
	rec = s.do(http.MethodGet, "/admin/evict?key=/x", nil)
	if rec.Code != http.StatusMethodNotAllowed || rec.Header().Get("Allow") != http.MethodPost {
		t.Errorf("GET /admin/evict = %d Allow=%q", rec.Code, rec.Header().Get("Allow"))
	}
	if rec := s.do(http.MethodGet, "/nope", nil); rec.Code != http.StatusNotFound {
		t.Errorf("GET /nope = %d", rec.Code)
	}
	if rec := s.do(http.MethodGet, "/admin/nope", nil); rec.Code != http.StatusNotFound {
		t.Errorf("GET /admin/nope = %d", rec.Code)
	}

	rec = s.do(http.MethodHead, "/metrics", nil)
	if rec.Code != http.StatusOK {
		t.Errorf("HEAD /metrics = %d", rec.Code)
	}
	if rec.Body.Len() != 0 {
		t.Errorf("HEAD /metrics carried %d body bytes", rec.Body.Len())
	}
	if rec.Header().Get("Content-Length") == "" {
		t.Error("HEAD /metrics without Content-Length")
	}
	rec = s.do(http.MethodHead, "/healthz", nil)
	if rec.Code != http.StatusOK || rec.Body.Len() != 0 {
		t.Errorf("HEAD /healthz = %d with %d body bytes", rec.Code, rec.Body.Len())
	}
}

// TestNewHandlerValidation: a handler with nothing to export is a
// configuration error.
func TestNewHandlerValidation(t *testing.T) {
	if _, err := NewHandler(Config{}); err == nil {
		t.Fatal("NewHandler with neither Proxy nor Origin must fail")
	}
	if _, err := NewHandler(Config{Origin: webserver.NewOrigin()}); err != nil {
		t.Fatalf("origin-only handler: %v", err)
	}
}

// TestOriginOnlyHandler: an origin node exports its own families and
// health without a proxy, and proxy-only admin actions say so.
func TestOriginOnlyHandler(t *testing.T) {
	origin := webserver.NewOrigin(webserver.WithPushHeartbeat(25 * time.Millisecond))
	origin.Set("/a", []byte("a"), "")
	h, err := NewHandler(Config{Origin: origin})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	sc, err := ParseExposition(rec.Body)
	if err != nil {
		t.Fatalf("origin-only /metrics unparseable: %v", err)
	}
	if v, ok := sc.Value("broadway_origin_objects"); !ok || v != 1 {
		t.Errorf("broadway_origin_objects = %v (present %v), want 1", v, ok)
	}
	if _, ok := sc.Value("broadway_cache_hits_total"); ok {
		t.Error("origin-only scrape exports proxy families")
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/admin/evict?key=/a", nil))
	if rec.Code != http.StatusUnprocessableEntity {
		t.Errorf("evict on origin-only node = %d, want 422", rec.Code)
	}
}

// TestSlowKillsDeltaSequential pins the cursor semantics the health
// probe depends on: each kill is reported exactly once, repeats report
// zero, and a stale total (snapshotted before a racing probe advanced
// the cursor) reports zero instead of underflowing the unsigned delta.
func TestSlowKillsDeltaSequential(t *testing.T) {
	h := &Handler{}
	for _, step := range []struct {
		total, want uint64
	}{
		{0, 0},
		{5, 5},  // first probe claims all five kills
		{5, 0},  // repeat probe: nothing new
		{7, 2},  // two more kills
		{6, 0},  // stale snapshot: must not underflow to 2^64-1
		{7, 0},  // cursor held at 7 through the stale probe
		{10, 3}, // and keeps attributing correctly afterwards
	} {
		if got := h.slowKillsDelta(step.total); got != step.want {
			t.Fatalf("slowKillsDelta(%d) = %d, want %d", step.total, got, step.want)
		}
	}
}

// TestSlowKillsDeltaConcurrentProbes is the regression for the shared
// probe state race: two (here, many) scrapers hammering /healthz while
// kills accumulate must collectively report every kill exactly once —
// the old lock-free read-modify-write could both double-count a kill
// and regress the cursor into an unsigned underflow.
func TestSlowKillsDeltaConcurrentProbes(t *testing.T) {
	h := &Handler{}
	var total atomic.Uint64
	const (
		scrapers   = 8
		perScraper = 5000
	)
	var sum atomic.Uint64
	var wg sync.WaitGroup
	for i := 0; i < scrapers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perScraper; j++ {
				// Half the scrapers also produce kills, so snapshots
				// interleave with advancing totals.
				if j%2 == 0 {
					total.Add(1)
				}
				snap := total.Load()
				d := h.slowKillsDelta(snap)
				if d > snap {
					t.Errorf("delta %d exceeds total %d (underflow)", d, snap)
					return
				}
				sum.Add(d)
			}
		}()
	}
	wg.Wait()
	// Any kills left unclaimed by racing snapshots surface on the next
	// quiet probe; after it the books must balance exactly.
	sum.Add(h.slowKillsDelta(total.Load()))
	if sum.Load() != total.Load() {
		t.Fatalf("probes reported %d kills in total, hub recorded %d — kills were missed or double-counted",
			sum.Load(), total.Load())
	}
}

package webproxy

import (
	"fmt"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"broadway/internal/core"
	"broadway/internal/httpx"
	"broadway/internal/webserver"
)

// newPushSetup wires a push-enabled origin behind a hybrid proxy. The
// origin heartbeats fast and the subscriber's watchdog is tight so chaos
// tests detect dead channels quickly.
func newPushSetup(t *testing.T, cfg Config) *liveSetup {
	t.Helper()
	origin := webserver.NewOrigin(
		webserver.WithHistoryExtension(true),
		webserver.WithPushHeartbeat(25*time.Millisecond),
	)
	originSrv := httptest.NewServer(origin)
	t.Cleanup(originSrv.Close)

	u, err := url.Parse(originSrv.URL)
	if err != nil {
		t.Fatal(err)
	}
	pushURL, _ := url.Parse(originSrv.URL + "/events")
	cfg.Origin = u
	cfg.PushURL = pushURL
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
	px, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	px.Start()
	t.Cleanup(px.Close)
	proxySrv := httptest.NewServer(px)
	t.Cleanup(proxySrv.Close)
	return &liveSetup{origin: origin, originSrv: originSrv, proxy: px, proxySrv: proxySrv}
}

func waitPushConnected(t *testing.T, px *Proxy) {
	t.Helper()
	if !waitFor(t, 3*time.Second, func() bool { return px.PushStats().Connected }) {
		t.Fatal("push channel never connected")
	}
}

// waitScheduledAfterPoll waits until key has completed at least minPolls
// polls AND sits rescheduled on the heap, then returns that schedule
// snapshot. Gating on the poll counter alone is racy: pollEntry bumps
// polls before rescheduleHybrid runs, so a preempted poller could
// expose the pre-stretch admission schedule to the assertion.
func waitScheduledAfterPoll(t *testing.T, px *Proxy, key string, minPolls uint64) (base, next time.Time) {
	t.Helper()
	e := px.lookup(key)
	if e == nil {
		t.Fatalf("%s not resident", key)
	}
	ok := waitFor(t, 3*time.Second, func() bool {
		if e.polls.Load() < minPolls {
			return false
		}
		px.schedMu.Lock()
		scheduled := e.item != nil
		if scheduled {
			base, next = e.baseNextAt, e.nextAt
		}
		px.schedMu.Unlock()
		return scheduled
	})
	if !ok {
		t.Fatalf("%s never rescheduled after %d polls", key, minPolls)
	}
	return base, next
}

func TestPushEventTriggersImmediateRefresh(t *testing.T) {
	// TTR bounds so wide that pull alone could not possibly observe the
	// update inside the assertion window: freshness must come from push.
	s := newPushSetup(t, Config{
		DefaultDelta: time.Minute,
		Bounds:       core.TTRBounds{Min: time.Minute, Max: time.Hour},
	})
	s.origin.Set("/page", []byte("v1"), "")
	waitPushConnected(t, s.proxy)
	s.get(t, "/page")

	s.origin.Set("/page", []byte("v2"), "")
	ok := waitFor(t, 3*time.Second, func() bool {
		b, _ := s.proxy.CachedBody("/page")
		return string(b) == "v2"
	})
	if !ok {
		t.Fatal("pushed invalidation did not refresh the cached copy")
	}
	if st := s.proxy.ObjectStats("/page"); st.Pushed == 0 {
		t.Errorf("no pushed poll recorded: %+v", st)
	}
	if ps := s.proxy.PushStats(); ps.Polls == 0 || ps.Events == 0 || !ps.Connected {
		t.Errorf("PushStats counters: %+v", ps)
	}
}

func TestPushEventForNonResidentObjectIsDropped(t *testing.T) {
	s := newPushSetup(t, Config{})
	waitPushConnected(t, s.proxy)
	s.origin.Set("/never-requested", []byte("v1"), "")
	s.origin.Set("/never-requested", []byte("v2"), "")
	if !waitFor(t, 3*time.Second, func() bool { return s.proxy.PushStats().Dropped >= 1 }) {
		t.Fatalf("events for non-resident objects not dropped: %+v", s.proxy.PushStats())
	}
	if s.origin.Polls() != 0 {
		t.Errorf("proxy polled the origin %d times for an object nobody requested", s.origin.Polls())
	}
}

func TestPushStretchesRegularPollsWhileHealthy(t *testing.T) {
	s := newPushSetup(t, Config{
		PushStretch: 8,
		Bounds:      core.TTRBounds{Min: 50 * time.Millisecond, Max: 10 * time.Second},
	})
	s.origin.Set("/static", []byte("unchanging"), "")
	waitPushConnected(t, s.proxy)
	s.get(t, "/static")

	// After the first regular poll completes on a healthy channel the
	// schedule entry must carry a stretched instant beyond its
	// paper-mode baseline.
	base, next := waitScheduledAfterPoll(t, s.proxy, "/static", 2)
	if !base.Before(next) {
		t.Errorf("healthy channel did not stretch: base %v next %v", base, next)
	}
}

func TestUnpushableKeyIsNeverStretched(t *testing.T) {
	// An object whose key cannot fit an invalidation frame will never be
	// announced by the origin; stretching its TTR would silently widen
	// its Δt bound to the stretched interval with nothing covering the
	// gap. Such objects must keep pure-polling schedules even while the
	// channel is healthy.
	s := newPushSetup(t, Config{
		PushStretch: 8,
		Bounds:      core.TTRBounds{Min: 50 * time.Millisecond, Max: 10 * time.Second},
	})
	huge := "/" + strings.Repeat("k", 4200)
	s.origin.Set(huge, []byte("v1"), "")
	s.origin.Set("/normal", []byte("v1"), "")
	// An origin path containing a literal '?' is cached under %3F — an
	// event for it ("/a?b") can never resolve to that cache key.
	s.origin.Set("/a?b", []byte("v1"), "")
	waitPushConnected(t, s.proxy)
	s.get(t, huge)
	s.get(t, "/normal")
	s.get(t, "/a%3Fb")
	// A query-bearing cache key can never match a path-granular event
	// either (the origin serves /normal for any query).
	s.get(t, "/normal?sym=A")

	check := func(label, key string, wantStretched bool) {
		base, next := waitScheduledAfterPoll(t, s.proxy, key, 2)
		if got := base.Before(next); got != wantStretched {
			t.Errorf("%s: stretched=%v want %v (base %v next %v)", label, got, wantStretched, base, next)
		}
	}
	check("oversized key", huge, false)
	check("normal key", "/normal", true)
	check("literal-? key", "/a%3Fb", false)
	check("query-bearing key", "/normal?sym=A", false)
	if s.origin.PushOversized() == 0 {
		t.Error("origin never dropped the oversized event")
	}
}

func TestPushDisconnectFallsBackWithinOneTTR(t *testing.T) {
	s := newPushSetup(t, Config{
		PushStretch: 50, // stretch hard: fallback must not inherit it
		Bounds:      core.TTRBounds{Min: 50 * time.Millisecond, Max: 10 * time.Second},
	})
	s.origin.Set("/page", []byte("v1"), "")
	waitPushConnected(t, s.proxy)
	s.get(t, "/page")

	// Let at least one regular poll stretch the schedule far out.
	if base, next := waitScheduledAfterPoll(t, s.proxy, "/page", 2); !base.Before(next) {
		t.Fatalf("schedule not stretched before the kill (base %v next %v)", base, next)
	}

	// Kill the channel. The origin updates while it is down; only the
	// pulled-back paper-mode schedule can observe the change.
	s.origin.SetPushAvailable(false)
	if !waitFor(t, 3*time.Second, func() bool { return s.proxy.PushStats().Fallbacks >= 1 }) {
		t.Fatal("fallback never triggered")
	}
	s.origin.Set("/page", []byte("v2"), "")
	// Pure paper-mode staleness is bounded by the current TTR; with the
	// update landing just after a poll the copy must refresh within one
	// full TTR (≤ Bounds.Max·linear growth, here well under 2s since
	// only a few quiet polls have grown it from 50ms).
	start := time.Now()
	ok := waitFor(t, 4*time.Second, func() bool {
		b, _ := s.proxy.CachedBody("/page")
		return string(b) == "v2"
	})
	if !ok {
		t.Fatal("fallback polling never observed the update")
	}
	if waited := time.Since(start); waited > 2*time.Second {
		t.Errorf("fallback refresh took %v; sweep did not restore paper-mode scheduling", waited)
	}
	if s.proxy.PushStats().Connected {
		t.Error("channel still marked healthy after the origin disabled it")
	}
}

func TestPushReconnectRearmsChannel(t *testing.T) {
	s := newPushSetup(t, Config{
		DefaultDelta: time.Minute,
		Bounds:       core.TTRBounds{Min: time.Minute, Max: time.Hour},
	})
	s.origin.Set("/page", []byte("v1"), "")
	waitPushConnected(t, s.proxy)
	s.get(t, "/page")

	s.origin.SetPushAvailable(false)
	if !waitFor(t, 3*time.Second, func() bool { return !s.proxy.PushStats().Connected }) {
		t.Fatal("disconnect never detected")
	}
	connectsBefore := s.proxy.PushStats().Connects
	s.origin.SetPushAvailable(true)
	if !waitFor(t, 3*time.Second, func() bool {
		st := s.proxy.PushStats()
		return st.Connected && st.Connects > connectsBefore
	}) {
		t.Fatal("channel never re-armed")
	}
	// A post-reconnect update must arrive via push again, long before
	// the minute-long TTR could observe it. (The event may even be
	// replayed from the origin's buffer — either path must refresh.)
	s.origin.Set("/page", []byte("v3"), "")
	ok := waitFor(t, 3*time.Second, func() bool {
		b, _ := s.proxy.CachedBody("/page")
		return string(b) == "v3"
	})
	if !ok {
		t.Fatal("re-armed channel did not deliver the update")
	}
}

func TestPushedPollTriggersGroupMembers(t *testing.T) {
	// The story updates arrive via push; the photo shares its group. A
	// pushed poll that confirms an update must impose the same mutual
	// obligation a regular poll would, so the photo gets triggered even
	// though its own TTR is a minute out.
	s := newPushSetup(t, Config{
		Mode:              core.TriggerAll,
		DefaultDelta:      time.Minute,
		DefaultGroupDelta: 5 * time.Millisecond,
		Bounds:            core.TTRBounds{Min: time.Minute, Max: time.Hour},
	})
	s.origin.Set("/story", []byte("story v1"), "text/html")
	s.origin.Set("/photo", []byte("photo v1"), "image/png")
	for _, path := range []string{"/story", "/photo"} {
		s.origin.SetTolerances(path, httpx.Tolerances{Group: "news"})
	}
	waitPushConnected(t, s.proxy)
	s.get(t, "/story")
	time.Sleep(30 * time.Millisecond) // desynchronize the two schedules
	s.get(t, "/photo")

	rev := 0
	ok := waitFor(t, 5*time.Second, func() bool {
		rev++
		s.origin.Set("/story", []byte(fmt.Sprintf("story v%d", rev)), "text/html")
		return s.proxy.ObjectStats("/photo").Triggered > 0
	})
	if !ok {
		t.Fatalf("pushed story updates never triggered the photo (story %+v photo %+v)",
			s.proxy.ObjectStats("/story"), s.proxy.ObjectStats("/photo"))
	}
}

// TestPushChaosSoak is the chaos battery of ISSUE 3: a churning origin
// whose event stream is repeatedly killed mid-burst. Throughout, the
// staleness of everything the proxy serves must stay within the pure-
// polling bound (TTR growth capped at Bounds.Max, plus scheduling and
// HTTP slack) — the channel may only ever make freshness better, never
// worse — and after each cut the subscriber must re-arm.
func TestPushChaosSoak(t *testing.T) {
	const (
		delta   = 50 * time.Millisecond
		ttrMax  = 300 * time.Millisecond
		objects = 4
	)
	s := newPushSetup(t, Config{
		DefaultDelta: delta,
		PushStretch:  10,
		Bounds:       core.TTRBounds{Min: delta, Max: ttrMax},
	})

	// revisions[i] records when each revision of object i was published;
	// reads through the proxy are checked against it.
	type revLog struct {
		mu    sync.Mutex
		times []time.Time
	}
	logs := make([]*revLog, objects)
	for i := range logs {
		logs[i] = &revLog{times: []time.Time{time.Now()}}
		s.origin.Set(fmt.Sprintf("/obj/%d", i), []byte("0"), "")
	}
	waitPushConnected(t, s.proxy)
	for i := 0; i < objects; i++ {
		s.get(t, fmt.Sprintf("/obj/%d", i))
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Churn: update every object in bursts.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rev := 0
		for {
			select {
			case <-stop:
				return
			case <-time.After(20 * time.Millisecond):
			}
			rev++
			for i := 0; i < objects; i++ {
				logs[i].mu.Lock()
				logs[i].times = append(logs[i].times, time.Now())
				logs[i].mu.Unlock()
				s.origin.Set(fmt.Sprintf("/obj/%d", i), []byte(strconv.Itoa(rev)), "")
			}
		}
	}()

	// Chaos: cut the stream mid-burst, revive it, repeat.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(150 * time.Millisecond):
				s.origin.KillPushStreams()
			}
			select {
			case <-stop:
				return
			case <-time.After(120 * time.Millisecond):
				s.origin.SetPushAvailable(false)
			}
			select {
			case <-stop:
				return
			case <-time.After(150 * time.Millisecond):
				s.origin.SetPushAvailable(true)
			}
		}
	}()

	// Readers: hammer the proxy and score staleness of every response.
	var staleViolations atomic.Int64
	// The serve-staleness bound: one full grown TTR, plus the admission
	// fetch/backoff slack. Generous against CI scheduling noise; the
	// point is the ceiling exists and survives chaos.
	bound := 2*ttrMax + time.Second
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				i := int(time.Now().UnixNano()) % objects
				body, _ := s.get(t, fmt.Sprintf("/obj/%d", i))
				served, err := strconv.Atoi(body)
				if err != nil {
					continue
				}
				now := time.Now()
				logs[i].mu.Lock()
				times := logs[i].times
				// The served revision became stale when revision
				// served+1 was published.
				if served+1 < len(times) {
					if age := now.Sub(times[served+1]); age > bound {
						staleViolations.Add(1)
					}
				}
				logs[i].mu.Unlock()
				time.Sleep(5 * time.Millisecond)
			}
		}()
	}

	time.Sleep(3 * time.Second)
	close(stop)
	wg.Wait()

	if v := staleViolations.Load(); v > 0 {
		t.Errorf("%d responses exceeded the pure-polling staleness bound %v", v, bound)
	}
	st := s.proxy.PushStats()
	if st.Fallbacks == 0 {
		t.Error("chaos never produced a fallback; the test exercised nothing")
	}
	if st.Connects < 2 {
		t.Errorf("subscriber connected only %d times across repeated cuts", st.Connects)
	}
	// The channel must end the run re-armed (give it a beat to settle).
	if !waitFor(t, 3*time.Second, func() bool { return s.proxy.PushStats().Connected }) {
		t.Error("channel did not re-arm after the final revival")
	}
}

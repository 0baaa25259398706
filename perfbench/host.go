package main

// The host process: builds the origin → relay → leaf hierarchy on
// loopback listeners, generates all origin content and drives every
// origin update from the workload seed, and runs the load generator as
// a child process against the leaf.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"broadway/internal/core"
	"broadway/internal/httpx"
	"broadway/internal/push"
	"broadway/internal/webproxy"
	"broadway/internal/webserver"
)

// topology is one origin → relay → leaf hierarchy.
type topology struct {
	s     *spec
	tr    *tracer      // nil when tracing is off
	clock atomic.Int64 // the origin's clock (Unix ns), set per update

	origin      *webserver.Origin
	relay, leaf *webproxy.Proxy
	servers     []*http.Server
	leafAddr    string

	obs *observations
}

// observations collects the proxies' PollObserver reports.
type observations struct {
	mu    sync.Mutex
	relay []webproxy.PollObservation
	leaf  []webproxy.PollObservation
	// lag receives leaf observations of new versions; the lag tracker
	// resolves them to a revision off the observer's goroutine.
	lag chan webproxy.PollObservation
}

func listen() (net.Listener, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	return ln, ln.Addr().String(), nil
}

func (tp *topology) serve(ln net.Listener, h http.Handler) {
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	tp.servers = append(tp.servers, srv)
	go srv.Serve(ln)
}

// buildTopology boots the three tiers and preloads revision 0 of every
// object.
func buildTopology(s *spec, base time.Time, tr *tracer, diskDir string) (*topology, error) {
	// The lag channel's buffer absorbs a burst of leaf updates while the
	// tracker reads bodies back; a full buffer drops samples, not work.
	tp := &topology{s: s, tr: tr, obs: &observations{lag: make(chan webproxy.PollObservation, 1<<14)}}
	tp.clock.Store(base.UnixNano())
	tp.origin = webserver.NewOrigin(
		webserver.WithClock(func() time.Time { return time.Unix(0, tp.clock.Load()) }),
		webserver.WithHistoryExtension(true),
	)
	var buf []byte
	for i := range s.objects {
		o := &s.objects[i]
		buf = s.body(buf, i, 0)
		tp.origin.Set(o.path, buf, o.contentType())
		tol := httpx.Tolerances{Delta: o.delta, ValueDelta: o.valueDelta, Group: o.group, GroupDelta: o.groupDelta}
		if o.delta == s.defaultDelta {
			tol.Delta = 0 // the proxies' default covers it
		}
		if !tol.IsZero() {
			tp.origin.SetTolerances(o.path, tol)
		}
	}

	originLn, originAddr, err := listen()
	if err != nil {
		return nil, err
	}
	var originH http.Handler = tp.origin
	if tr != nil {
		originH = tr.handler(spanOriginServe, tp.origin, "", false)
	}
	tp.serve(originLn, originH)

	relayLn, relayAddr, err := listen()
	if err != nil {
		return nil, err
	}
	originURL, _ := url.Parse("http://" + originAddr)
	relayCfg := webproxy.Config{
		Origin:       originURL,
		DefaultDelta: s.defaultDelta,
		Bounds:       core.TTRBounds{Max: s.ttrMax},
		Mode:         core.TriggerAll,
		RelayEvents:  true,
		PushValues:   true,
		PollObserver: func(o webproxy.PollObservation) {
			tp.obs.mu.Lock()
			tp.obs.relay = append(tp.obs.relay, o)
			tp.obs.mu.Unlock()
		},
	}
	if tr != nil {
		relayCfg.Client = &http.Client{Timeout: 10 * time.Second, Transport: &transport{t: tr, name: spanRelayUpstream, base: http.DefaultTransport}}
	}
	if tp.relay, err = webproxy.New(relayCfg); err != nil {
		return nil, err
	}
	tp.relay.Start()
	var relayH http.Handler = tp.relay
	if tr != nil {
		relayH = tr.handler(spanRelayServe, tp.relay, "/events", true)
	}
	tp.serve(relayLn, relayH)

	leafLn, leafAddr, err := listen()
	if err != nil {
		return nil, err
	}
	tp.leafAddr = leafAddr
	relayURL, _ := url.Parse("http://" + relayAddr)
	pushURL, _ := url.Parse("http://" + relayAddr + "/events")
	leafCfg := webproxy.Config{
		Origin:       relayURL,
		DefaultDelta: s.defaultDelta,
		Bounds:       core.TTRBounds{Max: s.ttrMax},
		Mode:         core.TriggerAll,
		PushURL:      pushURL,
		PushValues:   true,
		MaxBytes:     s.leafMaxBytes,
		PollObserver: tp.observeLeaf,
	}
	if s.disk {
		leafCfg.DiskDir = diskDir
	}
	if tr != nil {
		leafCfg.Client = &http.Client{Timeout: 10 * time.Second, Transport: &transport{t: tr, name: spanLeafUpstream, base: http.DefaultTransport}}
	}
	if tp.leaf, err = webproxy.New(leafCfg); err != nil {
		return nil, err
	}
	tp.leaf.Start()
	var leafH http.Handler = tp.leaf
	if tr != nil {
		leafH = tr.handler(spanLeafServe, tp.leaf, "", false)
	}
	tp.serve(leafLn, leafH)
	return tp, nil
}

func (tp *topology) observeLeaf(o webproxy.PollObservation) {
	tp.obs.mu.Lock()
	tp.obs.leaf = append(tp.obs.leaf, o)
	tp.obs.mu.Unlock()
	if o.Applied && tp.tr != nil {
		tp.tr.point(spanPushInstall, o.Key, o.At)
	}
	if o.Modified && !o.Initial {
		select {
		case tp.obs.lag <- o:
		default: // the tracker fell behind; the sample is lost, not the run
		}
	}
}

// warm brings the hierarchy to the workload's steady state: every
// object cached at the leaf (read-churn: on the leaf's disk tier, with
// the hottest objects resident) and at the relay.
func (tp *topology) warm(ctx context.Context) error {
	deadline := time.Now().Add(30 * time.Second)
	for !tp.leaf.PushStats().Connected {
		if time.Now().After(deadline) {
			return errors.New("leaf push channel never connected")
		}
		time.Sleep(2 * time.Millisecond)
	}
	s := tp.s
	order := make([]int, len(s.objects))
	for i := range order {
		order[i] = i
	}
	if err := tp.fetchAll(ctx, order); err != nil {
		return err
	}
	if s.disk {
		tp.leaf.FlushDisk()
		if n := tp.leaf.DiskStats().Records; n != len(s.objects) {
			return fmt.Errorf("leaf disk tier holds %d of %d objects after warm-up", n, len(s.objects))
		}
		// Re-admit the most requested objects, least requested first,
		// filling half the leaf's budget, so its resident set starts as
		// the hot set rather than the tail of the warm-up pass.
		counts := make([]int, len(s.objects))
		for _, r := range s.reqs {
			counts[r.obj]++
		}
		byCount := make([]int, len(s.objects))
		for i := range byCount {
			byCount[i] = i
		}
		sort.SliceStable(byCount, func(a, b int) bool { return counts[byCount[a]] > counts[byCount[b]] })
		var hot []int
		var size int64
		for _, i := range byCount {
			if size += int64(s.objects[i].size); size > s.leafMaxBytes/2 {
				break
			}
			hot = append(hot, i)
		}
		slices.Reverse(hot)
		if err := tp.fetchAll(ctx, hot); err != nil {
			return err
		}
		tp.leaf.FlushDisk()
	} else if n := tp.leaf.Len(); n != len(s.objects) {
		return fmt.Errorf("leaf holds %d of %d objects after warm-up", n, len(s.objects))
	}
	if n := tp.relay.Len(); n != len(s.objects) {
		return fmt.Errorf("relay holds %d of %d objects after warm-up", n, len(s.objects))
	}
	return nil
}

// fetchAll GETs each object through the leaf on two connections.
func (tp *topology) fetchAll(ctx context.Context, objs []int) error {
	client := &http.Client{Timeout: 10 * time.Second}
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var buf bytes.Buffer
			for i := w; i < len(objs); i += 2 {
				o := &tp.s.objects[objs[i]]
				req, _ := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+tp.leafAddr+o.key(), nil)
				resp, err := client.Do(req)
				if err != nil {
					errs <- fmt.Errorf("warming %s: %w", o.path, err)
					return
				}
				buf.Reset()
				buf.ReadFrom(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("warming %s: status %d", o.path, resp.StatusCode)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	client.CloseIdleConnections()
	select {
	case err := <-errs:
		return err
	default:
		return nil
	}
}

// quiesce stops the proxies' refreshers (Close waits for their workers),
// so every counter is final; the listeners keep serving until shutdown.
func (tp *topology) quiesce() {
	tp.leaf.Close()
	tp.relay.Close()
}

func (tp *topology) shutdown() {
	tp.quiesce()
	for _, srv := range tp.servers {
		srv.Close()
	}
}

// updater applies the seeded origin update schedule from t0 on. The
// origin's clock is set to each update's scheduled instant so its
// Last-Modified is reproducible from the seed.
type updater struct {
	mu    sync.Mutex
	setAt [][]time.Time // per object, per revision: when Set was called
	sets  atomic.Int64
}

func (tp *topology) runUpdates(ctx context.Context, t0 time.Time, u *updater) {
	s := tp.s
	var buf []byte
	for _, ev := range s.updateSchedule() {
		due := t0.Add(ev.at)
		if d := time.Until(due); d > 0 {
			select {
			case <-ctx.Done():
				return
			case <-time.After(d):
			}
		}
		for time.Now().Before(due) { // never publish early
			time.Sleep(50 * time.Microsecond)
		}
		o := &s.objects[ev.obj]
		buf = s.body(buf, ev.obj, ev.rev)
		tp.clock.Store(due.UnixNano())
		start := time.Now()
		tp.origin.Set(o.path, buf, o.contentType())
		end := time.Now()
		u.mu.Lock()
		u.setAt[ev.obj][ev.rev] = start
		u.mu.Unlock()
		u.sets.Add(1)
		if tp.tr != nil {
			tp.tr.counts[spanOriginSet].Add(1)
			if tp.tr.on.Load() {
				tp.tr.record(span{ID: tp.tr.ids.Add(1), Name: spanOriginSet, Key: o.path, Start: tp.tr.at(start), End: tp.tr.at(end), Req: -1})
			}
		}
	}
}

// lagTracker turns leaf observations of new versions into update-lag
// samples: the revision the leaf now holds (read back with CachedBody)
// against the instant the origin published it. Only trackLag writes it.
type lagTracker struct {
	samples dist
	seen    map[[2]int]bool
}

func (tp *topology) trackLag(u *updater, lt *lagTracker, keyIndex map[string]int) {
	s := tp.s
	for o := range tp.obs.lag {
		obj, ok := keyIndex[o.Key]
		if !ok {
			continue
		}
		body, ok := tp.leaf.CachedBody(o.Key)
		if !ok {
			continue
		}
		rev := -1
		ob := &s.objects[obj]
		u.mu.Lock()
		if ob.kind == kindQuote {
			for r := ob.revisions() - 1; r >= 1; r-- {
				if !u.setAt[obj][r].IsZero() && !u.setAt[obj][r].After(o.At) &&
					strconv.FormatFloat(ob.values[r], 'f', 2, 64) == string(body) {
					rev = r
					break
				}
			}
		} else if i := bytes.IndexByte(body, '\n'); i > 7 {
			rev, _ = strconv.Atoi(string(body[i-6 : i]))
		}
		var setAt time.Time
		if rev >= 1 && rev < ob.revisions() {
			setAt = u.setAt[obj][rev]
		}
		u.mu.Unlock()
		if setAt.IsZero() || setAt.After(o.At) {
			continue
		}
		if k := [2]int{obj, rev}; !lt.seen[k] {
			lt.seen[k] = true
			lt.samples.add(ms(o.At.Sub(setAt)))
		}
	}
}

// snapshot is the host's counters at one instant of the timed phase.
type snapshot struct {
	at         time.Time
	cpu        time.Duration
	origin     webserver.OriginStats
	leafCache  webproxy.CacheStats
	leafPush   webproxy.PushStats
	leafDisk   webproxy.DiskStats
	relayHub   push.HubStats
	allocs     uint64
	gcCPU      float64
	totalCPU   float64
	eventBytes int64
	sets       int64
	// steal and ticks are the machine's stolen and total CPU ticks
	// (/proc/stat), all processes.
	steal, ticks uint64
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func (tp *topology) snapshot(u *updater) snapshot {
	sn := snapshot{
		at:        time.Now(),
		cpu:       processCPU(),
		origin:    tp.origin.Stats(),
		leafCache: tp.leaf.CacheStats(),
		leafPush:  tp.leaf.PushStats(),
		leafDisk:  tp.leaf.DiskStats(),
		relayHub:  tp.relay.RelayStats().Hub,
		sets:      u.sets.Load(),
	}
	sn.steal, sn.ticks = machineTicks()
	rs := append([]metrics.Sample(nil), runtimeSamples...)
	metrics.Read(rs)
	sn.allocs = rs[0].Value.Uint64()
	sn.gcCPU = rs[1].Value.Float64()
	sn.totalCPU = rs[2].Value.Float64()
	if tp.tr != nil {
		sn.eventBytes = tp.tr.eventBytes.Load()
	}
	return sn
}

// machineTicks reads the machine-wide stolen and total CPU ticks: time
// the hypervisor ran another guest while this one was runnable, which
// stretches every wall-clock latency without showing in process CPU.
func machineTicks() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := bytes.Cut(b, []byte("\n"))
	fields := strings.Fields(string(line))
	for i, f := range fields[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// samples are the gauges sampled through the timed phase; the proxy
// gauges (overdueMs, inflight, pendingDisk) only in a traced phase.
type samples struct {
	rssMB       dist
	heapMB      dist
	overdueMs   dist
	inflight    dist
	pendingDisk dist
}

func rssBytes() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	var size, resident int64
	fmt.Sscan(string(b), &size, &resident)
	return float64(resident * int64(os.Getpagesize()))
}

func (tp *topology) sample(ctx context.Context, detail bool, sm *samples) {
	period := 50 * time.Millisecond
	if detail {
		period = 20 * time.Millisecond
	}
	tick := time.NewTicker(period)
	defer tick.Stop()
	rs := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	for {
		sm.rssMB.add(rssBytes() / (1 << 20))
		metrics.Read(rs)
		sm.heapMB.add(float64(rs[0].Value.Uint64()) / (1 << 20))
		if detail {
			over := 0.0
			if at, ok := tp.relay.NextRefreshAt(); ok {
				if d := time.Since(at); d > 0 {
					over = ms(d)
				}
			}
			sm.overdueMs.add(over)
			sm.inflight.add(float64(tp.relay.InFlightPolls()))
			sm.pendingDisk.add(float64(tp.leaf.DiskStats().PendingWrites))
		}
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
	}
}

// isTmpfs reports whether dir lives on tmpfs.
func isTmpfs(dir string) bool {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return false
	}
	return st.Type == 0x01021994 // TMPFS_MAGIC
}

// loadgenChild runs the load generator as a second process.
type loadgenChild struct {
	cmd    *exec.Cmd
	stdin  *os.File
	stdout *bufio.Reader
}

func startLoadgen(s *spec, leafAddr string, base time.Time, spansPath string) (*loadgenChild, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	conns := loadgenConns()
	cmd := exec.Command(self, "loadgen",
		"-addr", leafAddr, "-workload", s.name,
		"-seed", strconv.FormatInt(s.seed, 10),
		"-seconds", strconv.FormatFloat(s.seconds, 'f', -1, 64),
		"-rate", strconv.FormatFloat(s.rate, 'f', -1, 64),
		"-base", strconv.FormatInt(base.Unix(), 10),
		"-spans", spansPath,
	)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(conns))
	cmd.Stderr = os.Stderr
	inR, inW, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	cmd.Stdin = inR
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	inR.Close()
	lc := &loadgenChild{cmd: cmd, stdin: inW, stdout: bufio.NewReader(out)}
	line, err := lc.stdout.ReadString('\n')
	if err != nil || line != "ready\n" {
		lc.kill()
		return nil, fmt.Errorf("load generator did not start (%q): %v", line, err)
	}
	return lc, nil
}

func (lc *loadgenChild) kill() {
	lc.cmd.Process.Kill()
	lc.stdin.Close()
	lc.cmd.Wait()
}

// run releases the generator's schedule at t0 and collects its report.
func (lc *loadgenChild) run(t0 time.Time) (*loadgenReport, error) {
	if _, err := fmt.Fprintf(lc.stdin, "%d\n", t0.UnixNano()); err != nil {
		lc.kill()
		return nil, err
	}
	lc.stdin.Close()
	var rep loadgenReport
	decErr := json.NewDecoder(lc.stdout).Decode(&rep)
	if err := lc.cmd.Wait(); err != nil {
		return nil, fmt.Errorf("load generator: %w", err)
	}
	if decErr != nil {
		return nil, fmt.Errorf("load generator report: %w", decErr)
	}
	return &rep, nil
}

// hostRun is everything measured in one timed phase.
type hostRun struct {
	s      *spec
	setups []float64
	lg     *loadgenReport
	t0     time.Time
	snaps  [2]snapshot // t0, end
	// cpuMarks is the process CPU time at each window boundary.
	cpuMarks []time.Duration
	sm       samples
	upd      *updater
	lag      *lagTracker
	obs      *observations
	tr       *tracer // nil for an untraced phase
	tmpfs    bool
	spansOut string
	// lifetime counters read after quiescence (agreement check)
	originPolls  uint64
	valueApplied uint64
}

func runHost(args []string) (int, error) {
	opts, err := parseHostFlags(args)
	if err != nil {
		return 2, err
	}
	s, err := newSpec(opts.workload, opts.seed, float64(opts.seconds), opts.rate)
	if err != nil {
		return 2, err
	}
	if err := os.MkdirAll(opts.workdir, 0o755); err != nil {
		return 1, err
	}
	base := time.Now().Add(-time.Hour).Truncate(time.Second)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// The untraced phase is the whole run with -trace 0. With -trace 1 a
	// traced phase follows on a fresh hierarchy with the same seed, and
	// the untraced phase is its baseline for the tracing overhead.
	plain, err := measure(ctx, s, opts, base, false, s.setups)
	if err != nil {
		return 1, err
	}
	var traced *hostRun
	if opts.trace {
		if traced, err = measure(ctx, s, opts, base, true, 1); err != nil {
			return 1, err
		}
	}
	return report(os.Stdout, plain, traced), nil
}

// measure builds and warms the hierarchy setups times, runs the timed
// phase against the last one, and quiesces it. With traced, the
// hierarchy's handlers and transports are wrapped and record spans
// through the timed phase.
func measure(ctx context.Context, s *spec, opts hostFlags, base time.Time, traced bool, setups int) (*hostRun, error) {
	run := &hostRun{s: s}
	var tp *topology
	var diskDirs []string
	defer func() {
		if tp != nil {
			tp.shutdown()
		}
		for _, d := range diskDirs {
			os.RemoveAll(d)
		}
	}()
	// Set-up runs several times and is reported by its median; only the
	// last hierarchy is measured.
	for rep := 0; rep < setups; rep++ {
		if tp != nil {
			tp.shutdown()
			tp = nil
		}
		debug.FreeOSMemory() // so the measured hierarchy's RSS excludes its predecessors
		var tr *tracer
		if traced {
			tr = newTracer()
		}
		diskDir := filepath.Join(opts.workdir, fmt.Sprintf("leafdisk-%d-%v-%d", os.Getpid(), traced, rep))
		diskDirs = append(diskDirs, diskDir)
		start := time.Now()
		var err error
		if tp, err = buildTopology(s, base, tr, diskDir); err != nil {
			return nil, err
		}
		if err := tp.warm(ctx); err != nil {
			return nil, err
		}
		run.setups = append(run.setups, time.Since(start).Seconds())
	}
	// Housekeeping outside both set-up and the timed phase, so the timed
	// phase starts from the same state every run: the earlier
	// hierarchies' disk tiers are deleted and every dirty page is
	// written back (otherwise kernel writeback of set-up data, and the
	// deletions, land inside the timed phase), and the heap is collected
	// (so whether a collection of set-up garbage lands inside it does
	// not vary).
	for _, d := range diskDirs[:len(diskDirs)-1] {
		os.RemoveAll(d)
	}
	syscall.Sync()
	runtime.GC()
	run.tr, run.obs = tp.tr, tp.obs
	if s.disk {
		run.tmpfs = isTmpfs(opts.workdir)
	}

	keyIndex := make(map[string]int, len(s.objects))
	run.upd = &updater{setAt: make([][]time.Time, len(s.objects))}
	for i := range s.objects {
		keyIndex[s.objects[i].key()] = i
		run.upd.setAt[i] = make([]time.Time, s.objects[i].revisions())
	}
	run.lag = &lagTracker{seen: map[[2]int]bool{}}
	lagDone := make(chan struct{})
	go func() {
		tp.trackLag(run.upd, run.lag, keyIndex)
		close(lagDone)
	}()

	spansPath := ""
	if traced {
		run.spansOut = filepath.Join(opts.workdir, "spans-"+s.name+".jsonl")
		spansPath = filepath.Join(opts.workdir, fmt.Sprintf("client-spans-%d.jsonl", os.Getpid()))
		defer os.Remove(spansPath)
	}
	lc, err := startLoadgen(s, tp.leafAddr, base, spansPath)
	if err != nil {
		return nil, err
	}
	run.t0 = time.Now().Add(100 * time.Millisecond)
	dur := time.Duration(opts.seconds) * time.Second
	run.cpuMarks = make([]time.Duration, phaseWindows+1)

	var bg sync.WaitGroup
	bgCtx, stopBg := context.WithCancel(ctx)
	bg.Add(3)
	go func() {
		defer bg.Done()
		tp.runUpdates(bgCtx, run.t0, run.upd)
	}()
	go func() {
		defer bg.Done()
		time.Sleep(time.Until(run.t0))
		tp.sample(bgCtx, traced, &run.sm)
	}()
	go func() {
		defer bg.Done()
		for i := 0; i <= phaseWindows; i++ {
			time.Sleep(time.Until(run.t0.Add(dur * time.Duration(i) / phaseWindows)))
			run.cpuMarks[i] = processCPU()
			switch i {
			case 0:
				run.snaps[0] = tp.snapshot(run.upd)
			case phaseWindows:
				run.snaps[1] = tp.snapshot(run.upd)
			}
		}
	}()
	if tp.tr != nil {
		// Record from just before t0, so no span of a request due at t0
		// is missed; before then only background work runs.
		tp.tr.on.Store(true)
	}
	lg, err := lc.run(run.t0)
	if err != nil {
		stopBg()
		bg.Wait()
		return nil, err
	}
	run.lg = lg
	time.Sleep(time.Until(run.t0.Add(dur + 50*time.Millisecond)))
	stopBg()
	bg.Wait()
	if tp.tr != nil {
		tp.tr.on.Store(false)
	}

	// Quiesce, then read lifetime counters for the agreement check.
	tp.quiesce()
	close(tp.obs.lag)
	<-lagDone
	run.originPolls = tp.origin.Stats().Polls
	run.valueApplied = tp.leaf.PushStats().ValueApplied
	if traced {
		if err := run.collectSpans(spansPath); err != nil {
			return nil, err
		}
	}
	return run, nil
}

type hostFlags struct {
	workload string
	seed     int64
	seconds  int
	rate     float64
	trace    bool
	workdir  string
}

func parseHostFlags(args []string) (hostFlags, error) {
	var f hostFlags
	var trace int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&f.workload, "workload", "", "workload: read-hot, read-churn or update-mix")
	fs.Int64Var(&f.seed, "seed", 1, "workload seed")
	fs.IntVar(&f.seconds, "seconds", 10, "timed seconds")
	fs.Float64Var(&f.rate, "rate", 0, "offered requests per second; 0 keeps the workload's own rate (saturation.py sweeps it)")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced variant and reports per-layer metrics")
	fs.StringVar(&f.workdir, "workdir", ".bench_build/run", "scratch directory for the disk tier and span files")
	if err := fs.Parse(args); err != nil {
		return f, err
	}
	if f.workload == "" {
		return f, errors.New("-workload is required")
	}
	if f.seconds < 2 || f.rate < 0 || (trace != 0 && trace != 1) {
		return f, errors.New("need -seconds >= 2, -rate >= 0 and -trace 0 or 1")
	}
	f.trace = trace == 1
	return f, nil
}

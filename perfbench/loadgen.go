package main

// The load generator: a separate process that sends the workload's
// request schedule to the leaf in an open loop (each request is due at a
// fixed instant whatever happened to earlier ones), times each request
// from its due instant, and verifies every response.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"
)

// requestTimeout bounds one request; a timeout counts as a failure and
// as this much latency.
const requestTimeout = 5 * time.Second

// maxLateP99 is the generator-lateness limit: a run whose dispatcher
// fell further behind its own schedule measured the generator, not the
// system, and is flagged invalid.
const maxLateP99 = 20 * time.Millisecond

// phaseWindows is the number of equal sub-windows of the timed phase.
// The latency percentiles and the CPU cost per request are each the
// median over the windows, which keeps them steady against a stall that
// hits a few windows on a shared machine.
const phaseWindows = 20

// outcome is what the generator records per request.
type outcome struct {
	late time.Duration // dispatch − due
	lat  time.Duration // completion − due
	done time.Time
	vd   verdict
}

// classStats summarizes one response class.
type classStats struct {
	Count int     `json:"count"`
	P50ms float64 `json:"p50_ms"`
	P99ms float64 `json:"p99_ms"`
}

// phaseReport summarizes the requests due in one part of the timed
// phase.
type phaseReport struct {
	Attempted int            `json:"attempted"`
	OK        int            `json:"ok"`
	Failed    int            `json:"failed"`
	Failures  map[string]int `json:"failures"`
	// VerifierFailures counts failures other than transport errors and
	// timeouts: responses that broke a correctness check.
	VerifierFailures int     `json:"verifier_failures"`
	Hits             int     `json:"hits"`
	Stale            int     `json:"stale"`
	Seconds          float64 `json:"seconds"`
	P99ms            float64 `json:"p99_ms"`
	// P50WindowedMs, P90WindowedMs and P99WindowedMs are the medians
	// over the phaseWindows sub-windows of each window's p50, p90 and
	// p99; WindowP99ms lists the windows' p99s and WindowOK their
	// successes.
	P50WindowedMs float64               `json:"p50_windowed_ms"`
	P90WindowedMs float64               `json:"p90_windowed_ms"`
	P99WindowedMs float64               `json:"p99_windowed_ms"`
	WindowP99ms   []float64             `json:"window_p99_ms"`
	WindowOK      []int                 `json:"window_ok"`
	LateP50ms     float64               `json:"late_p50_ms"`
	LateP99ms     float64               `json:"late_p99_ms"`
	Classes       map[string]classStats `json:"classes"`
}

// loadgenReport is the generator's output line.
type loadgenReport struct {
	Conns int         `json:"conns"`
	Phase phaseReport `json:"phase"`
}

func runLoadgen(args []string) error {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	addr := fs.String("addr", "", "leaf address host:port")
	workload := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 10, "timed seconds")
	rate := fs.Float64("rate", 0, "offered requests per second (0: the workload's own)")
	baseUnix := fs.Int64("base", 0, "revision 0's Last-Modified, Unix seconds")
	spansPath := fs.String("spans", "", "file to write client.request spans to (traced phase)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	s, err := newSpec(*workload, *seed, *seconds, *rate)
	if err != nil {
		return err
	}
	base := time.Unix(*baseUnix, 0)
	clients := make([]*http.Client, loadgenConns())
	for i := range clients {
		clients[i] = &http.Client{
			Timeout: requestTimeout,
			Transport: &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			},
		}
		// Open the connection before the timed phase.
		resp, err := clients[i].Head("http://" + *addr + s.reqs[0].target)
		if err != nil {
			return fmt.Errorf("warming connection: %w", err)
		}
		resp.Body.Close()
	}
	fmt.Println("ready")
	line, err := bufio.NewReader(os.Stdin).ReadString('\n')
	if err != nil {
		return fmt.Errorf("reading start instant: %w", err)
	}
	t0ns, err := strconv.ParseInt(strings.TrimSpace(line), 10, 64)
	if err != nil {
		return fmt.Errorf("parsing start instant: %w", err)
	}
	t0 := time.Unix(0, t0ns)

	out := make([]outcome, len(s.reqs))
	// Buffered for the whole schedule so the dispatcher never blocks on
	// slow workers: a backlog must show as latency, not as a late send.
	queue := make(chan int, len(s.reqs))
	var wg sync.WaitGroup
	wg.Add(len(clients))
	for _, c := range clients {
		go func(c *http.Client) {
			defer wg.Done()
			v := newVerifier(s, t0, base)
			var buf bytes.Buffer
			for i := range queue {
				out[i] = send(c, *addr, s, v, &s.reqs[i], t0, &buf, i)
			}
		}(c)
	}
	lates := make([]time.Duration, len(s.reqs))
	for i := range s.reqs {
		due := t0.Add(s.reqs[i].at)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		lates[i] = time.Since(due)
		queue <- i
	}
	close(queue)
	wg.Wait()
	for i := range out {
		out[i].late = lates[i]
	}

	if *spansPath != "" {
		spans := make([]span, len(out))
		for i := range out {
			spans[i] = span{
				Name: spanClient, Key: s.reqs[i].target, Req: int64(i),
				Start: t0.Add(s.reqs[i].at).UnixNano(), End: out[i].done.UnixNano(),
			}
		}
		if err := writeSpans(*spansPath, spans); err != nil {
			return err
		}
	}
	rep := loadgenReport{Conns: len(clients), Phase: summarize(s, out, t0)}
	return json.NewEncoder(os.Stdout).Encode(rep)
}

// send performs one scheduled request and verifies the response.
func send(c *http.Client, addr string, s *spec, v *verifier, req *request, t0 time.Time, buf *bytes.Buffer, id int) outcome {
	due := t0.Add(req.at)
	method := http.MethodGet
	if req.method == methodHead {
		method = http.MethodHead
	}
	hreq, err := http.NewRequest(method, "http://"+addr+req.target, nil)
	if err != nil {
		panic(err) // the schedule only holds well-formed targets
	}
	hreq.Header.Set(requestIDHeader, strconv.Itoa(id))
	if req.method == methodIMS {
		lm := s.objects[req.obj].lastModified(int(req.imsRev), t0, v.base)
		hreq.Header.Set("If-Modified-Since", lm.UTC().Format(http.TimeFormat))
	}
	resp, err := c.Do(hreq)
	if err == nil {
		buf.Reset()
		_, err = buf.ReadFrom(resp.Body)
		resp.Body.Close()
	}
	done := time.Now()
	if err != nil {
		return outcome{lat: done.Sub(due), done: done, vd: verdict{class: classOther, fail: failTransport}}
	}
	return outcome{
		lat:  done.Sub(due),
		done: done,
		vd:   v.check(req, resp.StatusCode, resp.Header, buf.Bytes(), due, done),
	}
}

// summarize reduces the outcomes of the timed phase. Failed requests
// count as missing any latency limit: they enter the latency sample at
// requestTimeout.
func summarize(s *spec, out []outcome, t0 time.Time) phaseReport {
	r := phaseReport{Failures: map[string]int{}, Classes: map[string]classStats{}}
	var lat, late dist
	var classes [numClasses]dist
	windows := make([]dist, phaseWindows)
	r.WindowOK = make([]int, phaseWindows)
	span := s.seconds / phaseWindows
	var first, last time.Time
	for i, o := range out {
		r.Attempted++
		due := t0.Add(s.reqs[i].at)
		if first.IsZero() || due.Before(first) {
			first = due
		}
		if o.done.After(last) {
			last = o.done
		}
		late.add(ms(o.late))
		x := ms(o.lat)
		if o.vd.fail != failNone {
			r.Failed++
			r.Failures[o.vd.fail]++
			if o.vd.fail != failTransport {
				r.VerifierFailures++
			}
			x = ms(requestTimeout)
		} else {
			r.OK++
			classes[o.vd.class].add(x)
			if o.vd.hit {
				r.Hits++
			}
			if o.vd.stale {
				r.Stale++
			}
		}
		lat.add(x)
		w := min(int(s.reqs[i].at.Seconds()/span), phaseWindows-1)
		windows[w].add(x)
		if o.vd.fail == failNone {
			r.WindowOK[w]++
		}
	}
	r.Seconds = last.Sub(first).Seconds()
	r.P99ms = lat.q(0.99)
	var wp50, wp90, wp99 []float64
	for w := range windows {
		if len(windows[w].xs) > 0 {
			wp50 = append(wp50, windows[w].q(0.50))
			wp90 = append(wp90, windows[w].q(0.90))
			wp99 = append(wp99, windows[w].q(0.99))
		}
	}
	r.P50WindowedMs = median(wp50)
	r.P90WindowedMs = median(wp90)
	r.P99WindowedMs = median(wp99)
	r.WindowP99ms = wp99
	r.LateP50ms = late.q(0.50)
	r.LateP99ms = late.q(0.99)
	for c := range classes {
		if n := len(classes[c].xs); n > 0 {
			r.Classes[classNames[c]] = classStats{Count: n, P50ms: classes[c].q(0.5), P99ms: classes[c].q(0.99)}
		}
	}
	return r
}

// loadgenConns is the generator's connection count and GOMAXPROCS:
// at most two, and never more than the machine's CPUs.
func loadgenConns() int {
	return min(2, runtime.NumCPU())
}

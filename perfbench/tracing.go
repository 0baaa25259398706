package main

// Tracing from outside the program: spans are recorded only by the
// benchmark's own wrappers around the calls into each layer (the
// proxies' and origin's http.Handlers, the proxies' upstream
// http.Client transports, the host's updater and the leaf's
// PollObserver). Nothing inside the program is instrumented.

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"net/url"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

const (
	// requestIDHeader carries the load generator's request id; the
	// leaf.serve span adopts it.
	requestIDHeader = "X-Bench-Req"
	// spanIDHeader carries an upstream span's id to the handler that
	// serves it, so a relay.serve or origin.serve span knows its parent.
	spanIDHeader = "X-Bench-Span"
)

// Span names.
const (
	spanClient        = "client.request" // written by the load generator, merged by the host
	spanLeafServe     = "leaf.serve"
	spanRelayServe    = "relay.serve"
	spanLeafUpstream  = "leaf.upstream"
	spanRelayUpstream = "relay.upstream"
	spanOriginServe   = "origin.serve"
	spanOriginSet     = "origin.set"
	spanPushInstall   = "push.install"
)

var hostSpanNames = []string{
	spanLeafServe, spanLeafUpstream, spanRelayServe, spanRelayUpstream,
	spanOriginServe, spanOriginSet, spanPushInstall,
}

// span is one timed call into a layer.
type span struct {
	ID     int64  `json:"id"`
	Name   string `json:"name"`
	Key    string `json:"key"`
	Start  int64  `json:"start_ns"` // since the tracer's origin
	End    int64  `json:"end_ns"`
	Parent int64  `json:"parent"` // 0 for a root
	Req    int64  `json:"req"`    // client request id; -1 for none
	Status int    `json:"status,omitempty"`
	Cache  string `json:"x_cache,omitempty"`
	Self   int64  `json:"self_ns"`
	// via is the parent id an upstream fetch announced in its header.
	via int64
}

// tracer collects spans while on, and counts every call its wrappers
// see whether on or not (the counts feed the agreement check).
type tracer struct {
	origin time.Time
	on     atomic.Bool
	ids    atomic.Int64
	mu     sync.Mutex
	spans  []span
	counts map[string]*atomic.Int64
	// eventBytes counts bytes written on the relay's event streams.
	eventBytes atomic.Int64
}

func newTracer() *tracer {
	t := &tracer{origin: time.Now(), counts: map[string]*atomic.Int64{}}
	for _, n := range hostSpanNames {
		t.counts[n] = new(atomic.Int64)
	}
	return t
}

func (t *tracer) at(x time.Time) int64 { return int64(x.Sub(t.origin)) }

func (t *tracer) record(sp span) {
	t.mu.Lock()
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
}

// point records a zero-length span (a push install observation).
func (t *tracer) point(name, key string, at time.Time) {
	t.counts[name].Add(1)
	if t.on.Load() {
		x := t.at(at)
		t.record(span{ID: t.ids.Add(1), Name: name, Key: key, Start: x, End: x, Req: -1})
	}
}

// canonKey renders a request URL the way the proxy keys its cache:
// escaped path plus the query re-encoded with sorted parameters.
func canonKey(u *url.URL) string {
	if u.RawQuery == "" {
		return u.EscapedPath()
	}
	q, err := url.ParseQuery(u.RawQuery)
	if err != nil {
		return u.EscapedPath() + "?" + u.RawQuery
	}
	return u.EscapedPath() + "?" + q.Encode()
}

// handler wraps a layer's http.Handler. Requests for eventsPath (the
// push stream) are passed through untimed; with countEvents their bytes
// are counted.
func (t *tracer) handler(name string, next http.Handler, eventsPath string, countEvents bool) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if eventsPath != "" && r.URL.Path == eventsPath {
			if countEvents {
				w = &countingWriter{ResponseWriter: w, n: &t.eventBytes}
			}
			next.ServeHTTP(w, r)
			return
		}
		on := t.on.Load()
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(sw, r)
		end := time.Now()
		if name != spanOriginServe || sw.status == http.StatusOK || sw.status == http.StatusNotModified {
			// The origin counts polls of hosted objects: 200s and 304s.
			t.counts[name].Add(1)
		}
		if !on {
			return
		}
		sp := span{
			ID: t.ids.Add(1), Name: name, Key: canonKey(r.URL),
			Start: t.at(start), End: t.at(end), Req: -1,
			Status: sw.status, Cache: sw.Header().Get("X-Cache"),
		}
		if v := r.Header.Get(requestIDHeader); v != "" {
			sp.Req, _ = strconv.ParseInt(v, 10, 64)
		}
		if v := r.Header.Get(spanIDHeader); v != "" {
			sp.via, _ = strconv.ParseInt(v, 10, 64)
		}
		t.record(sp)
	})
}

type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// countingWriter counts bytes written and still flushes, so the event
// stream it wraps behaves exactly as unwrapped.
type countingWriter struct {
	http.ResponseWriter
	n *atomic.Int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n.Add(int64(n))
	return n, err
}

func (w *countingWriter) Flush() { w.ResponseWriter.(http.Flusher).Flush() }

// Unwrap lets http.ResponseController reach the connection (the hub
// sets write deadlines through it).
func (w *countingWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// transport wraps a proxy's upstream RoundTripper. The span ends when
// the proxy closes the response body, so it covers the body transfer.
type transport struct {
	t    *tracer
	name string
	base http.RoundTripper
}

func (tt *transport) RoundTrip(req *http.Request) (*http.Response, error) {
	tt.t.counts[tt.name].Add(1)
	if !tt.t.on.Load() {
		return tt.base.RoundTrip(req)
	}
	id := tt.t.ids.Add(1)
	req = req.Clone(req.Context())
	req.Header.Set(spanIDHeader, strconv.FormatInt(id, 10))
	key := req.URL.EscapedPath()
	if req.URL.RawQuery != "" {
		key += "?" + req.URL.RawQuery
	}
	sp := span{ID: id, Name: tt.name, Key: key, Start: tt.t.at(time.Now()), Req: -1}
	resp, err := tt.base.RoundTrip(req)
	if err != nil {
		sp.End = tt.t.at(time.Now())
		tt.t.record(sp)
		return nil, err
	}
	sp.Status = resp.StatusCode
	resp.Body = &spanBody{ReadCloser: resp.Body, t: tt.t, sp: sp}
	return resp, nil
}

type spanBody struct {
	io.ReadCloser
	t    *tracer
	sp   span
	once sync.Once
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() {
		b.sp.End = b.t.at(time.Now())
		b.t.record(b.sp)
	})
	return err
}

// resolve links spans into trees and computes self times. Handler spans
// learn their parent from the header their caller set (the generator's
// request id for leaf.serve, an upstream span id for the others).
// Upstream fetches are built by the proxy itself, so they are parented
// by key and containment: the earliest in-flight serve span of the same
// process and key that covers the fetch (singleflight shares one fetch
// among several). A fetch inside no serve span is a background poll and
// stays a root. Request ids flow down from the client.request roots.
func resolve(spans []span) {
	byID := make(map[int64]int, len(spans))
	serves := map[string]map[string][]int{} // serve span name -> key -> indices
	for i := range spans {
		byID[spans[i].ID] = i
		if n := spans[i].Name; n == spanLeafServe || n == spanRelayServe {
			if serves[n] == nil {
				serves[n] = map[string][]int{}
			}
			serves[n][spans[i].Key] = append(serves[n][spans[i].Key], i)
		}
	}
	for i := range spans {
		sp := &spans[i]
		switch sp.Name {
		case spanLeafServe, spanRelayServe, spanOriginServe:
			if _, ok := byID[sp.via]; ok {
				sp.Parent = sp.via
			}
		case spanLeafUpstream, spanRelayUpstream:
			owner := spanLeafServe
			if sp.Name == spanRelayUpstream {
				owner = spanRelayServe
			}
			best := -1
			for _, j := range serves[owner][sp.Key] {
				c := &spans[j]
				if c.Start <= sp.Start && c.End >= sp.End && (best < 0 || c.Start < spans[best].Start) {
					best = j
				}
			}
			if best >= 0 {
				sp.Parent = spans[best].ID
			}
		}
	}
	// Request ids: walk up to the root.
	for i := range spans {
		if spans[i].Req >= 0 {
			continue
		}
		for j, hops := i, 0; spans[j].Parent != 0 && hops < 8; hops++ {
			j = byID[spans[j].Parent]
			if spans[j].Req >= 0 {
				spans[i].Req = spans[j].Req
				break
			}
		}
	}
	// Self time: duration minus the union of the children's intervals.
	children := map[int64][]int{}
	for i := range spans {
		if p := spans[i].Parent; p != 0 {
			children[p] = append(children[p], i)
		}
	}
	for i := range spans {
		sp := &spans[i]
		kids := children[sp.ID]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, cur := int64(0), sp.Start
		for _, k := range kids {
			s, e := max(spans[k].Start, cur), min(spans[k].End, sp.End)
			if e > s {
				covered += e - s
				cur = e
			}
		}
		sp.Self = sp.End - sp.Start - covered
	}
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

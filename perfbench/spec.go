package main

// Workload specifications. Everything the host serves and everything the
// load generator sends is a pure function of (workload, seed, seconds,
// rate): the object set, every revision's body, the origin update
// schedule and the request schedule. Both processes rebuild the same
// spec from the same flags, so the verifier can recompute any published
// revision without the host telling it anything but the run's time
// origin.

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"net/url"
	"sort"
	"strconv"
	"time"
)

type objKind uint8

const (
	kindPlain  objKind = iota // a page with its own Δ
	kindPage                  // the page of a consistency group
	kindMember                // an embedded object of a group
	kindQuote                 // a decimal value object with a Δv
)

// object is one origin resource.
type object struct {
	path       string
	params     [][2]string // query parameters (read-hot); the cache key sorts them
	kind       objKind
	size       int // body length of every revision (not quotes)
	delta      time.Duration
	group      string
	groupDelta time.Duration
	valueDelta float64
	// updates holds the offsets from T0 of revisions 1..n.
	updates []time.Duration
	// values holds each revision's value (quotes only; len(updates)+1).
	values []float64
	// members lists the group's embedded objects (group pages only).
	members []int
}

// key is the leaf's canonical cache key for the object.
func (o *object) key() string {
	if len(o.params) == 0 {
		return o.path
	}
	q := url.Values{}
	for _, p := range o.params {
		q.Set(p[0], p[1])
	}
	return o.path + "?" + q.Encode()
}

// Request methods in the schedule.
const (
	methodGet  uint8 = iota
	methodIMS        // GET with If-Modified-Since
	methodHead       // HEAD
)

// request is one scheduled client request.
type request struct {
	at     time.Duration // intended send time, offset from T0
	obj    int32
	method uint8
	// imsRev is the revision whose Last-Modified the client sends as
	// If-Modified-Since (methodIMS only).
	imsRev int32
	target string // request URI, query parameters in the order sent
}

// spec is a fully generated workload.
type spec struct {
	name    string
	seed    int64
	seconds float64
	rate    float64 // offered requests per second
	objects []object
	reqs    []request

	// Proxy settings the workload needs.
	defaultDelta time.Duration
	ttrMax       time.Duration
	leafMaxBytes int64 // 0 leaves the leaf uncapped
	disk         bool  // leaf disk tier on
	// setups is how many times a run builds and warms the hierarchy;
	// setup_s is their median. Quick set-ups repeat more.
	setups int
}

// workloads names the benchmark's workloads in order.
var workloads = []string{"read-hot", "read-churn", "update-mix"}

// workloadWhy records why each workload exists; README.md and
// BENCHMARK.json repeat these lines.
var workloadWhy = map[string]string{
	"read-hot":   "all hits on small bodies: the bare leaf serve path; the no-change workload for refresh, push, eviction and disk work",
	"read-churn": "working set ~10x the leaf's memory: CLOCK eviction, disk demote/promote, write-behind, singleflight and the upstream client",
	"update-mix": "origin updates beside reads: the core refresh engine, group triggers, the origin's 304 path and the relay-to-leaf push ladder",
}

// newSpec builds the named workload at the offered rate, or at the
// workload's own rate when rate is 0. The sub-generators draw from
// separate streams so that, e.g., the request rate never perturbs the
// object set.
func newSpec(name string, seed int64, seconds, rate float64) (*spec, error) {
	s := &spec{name: name, seed: seed, seconds: seconds}
	objRng := s.rng("objects")
	updRng := s.rng("updates")
	reqRng := s.rng("requests")
	switch name {
	case "read-hot":
		s.rate = cmp.Or(rate, 2500)
		s.setups = 3
		s.defaultDelta = 10 * time.Minute
		s.ttrMax = 60 * time.Minute
		s.objects = make([]object, 20000)
		for k := range s.objects {
			o := &s.objects[k]
			o.path = fmt.Sprintf("/hot/%05d", k)
			o.size = int(logAt(strat(k, stepSize, objRng), 128, 4096))
			o.delta = s.defaultDelta
			if strat(k, stepKind, objRng) < 0.2 {
				n := 2 + objRng.Intn(2)
				for j := 0; j < n; j++ {
					o.params = append(o.params, [2]string{
						fmt.Sprintf("p%c", 'a'+j),
						strconv.Itoa(objRng.Intn(1000)),
					})
				}
			}
		}
		s.readRequests(reqRng, 1.0, 0.10, 0.05)
	case "read-churn":
		s.rate = cmp.Or(rate, 700)
		s.setups = 3
		s.defaultDelta = 10 * time.Minute
		s.ttrMax = 60 * time.Minute
		s.disk = true
		s.objects = make([]object, 6000)
		var total int64
		for k := range s.objects {
			o := &s.objects[k]
			o.path = fmt.Sprintf("/churn/%05d", k)
			o.size = int(logAt(strat(k, stepSize, objRng), 1024, 64*1024))
			o.delta = s.defaultDelta
			total += int64(o.size)
		}
		s.leafMaxBytes = total / 10
		s.readRequests(reqRng, 0.8, 0.10, 0)
	case "update-mix":
		s.rate = cmp.Or(rate, 1200)
		s.setups = 9
		s.defaultDelta = 5 * time.Second
		s.ttrMax = 60 * time.Second
		s.buildUpdateMix(objRng, updRng)
		s.updateRequests(reqRng)
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloads)
	}
	return s, nil
}

// rng returns the deterministic stream for one part of the spec.
func (s *spec) rng(part string) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d/%s", s.name, s.seed, part)
	return rand.New(rand.NewSource(int64(h.Sum64())))
}

// Objects are created in popularity order (object k is the k-th most
// requested). Their per-object properties — size, update rate, kind —
// come from strat: a low-discrepancy sequence over the object index,
// nudged by the seed. The properties are then spread evenly over their
// ranges whatever the seed, so the composition of the hot set, which
// decides most of the work per request, does not swing from seed to
// seed; the seed still moves every value a little and decides the
// bodies, query orders, update instants and the request sequence.
const (
	stepSize  = 0.6180339887498949  // golden ratio
	stepRate  = 0.41421356237309515 // √2 − 1
	stepKind  = 0.7320508075688772  // √3 − 1
	stepDelta = 0.2360679774997898  // √5 − 2
)

func strat(k int, step float64, r *rand.Rand) float64 {
	x := float64(k)*step + r.Float64()*0.02
	return x - math.Floor(x)
}

// logAt maps u in [0,1) log-uniformly onto [lo, hi).
func logAt(u, lo, hi float64) float64 {
	return math.Exp(math.Log(lo) + u*(math.Log(hi)-math.Log(lo)))
}

// zipf samples ranks 0..n-1 with P(k) ∝ 1/(k+1)^s (math/rand's Zipf
// needs s > 1; the workloads use s ≤ 1).
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) *zipf {
	z := &zipf{cdf: make([]float64, n)}
	sum := 0.0
	for k := 0; k < n; k++ {
		sum += 1 / math.Pow(float64(k+1), s)
		z.cdf[k] = sum
	}
	for k := range z.cdf {
		z.cdf[k] /= sum
	}
	return z
}

func (z *zipf) sample(r *rand.Rand) int {
	return sort.SearchFloat64s(z.cdf, r.Float64())
}

// readRequests fills a read-only schedule: Zipf(s) popularity over the
// objects' order, with the given shares of conditional and HEAD
// requests. Without updates every conditional request carries revision
// 0's Last-Modified and must be answered 304.
func (s *spec) readRequests(r *rand.Rand, zs, imsShare, headShare float64) {
	z := newZipf(len(s.objects), zs)
	n := int(s.rate * s.seconds)
	s.reqs = make([]request, n)
	for i := range s.reqs {
		obj := z.sample(r)
		req := request{at: s.offset(i), obj: int32(obj), method: methodGet}
		switch u := r.Float64(); {
		case u < imsShare:
			req.method = methodIMS
		case u < imsShare+headShare:
			req.method = methodHead
		}
		req.target = s.target(r, obj)
		s.reqs[i] = req
	}
}

// offset spaces requests evenly at the offered rate (open loop).
func (s *spec) offset(i int) time.Duration {
	return time.Duration(float64(i) / s.rate * float64(time.Second))
}

// target renders the request URI with the query parameters in a seeded
// random order, so the proxy's canonical-key sort does real work.
func (s *spec) target(r *rand.Rand, obj int) string {
	o := &s.objects[obj]
	if len(o.params) == 0 {
		return o.path
	}
	var b bytes.Buffer
	b.WriteString(o.path)
	for j, k := range r.Perm(len(o.params)) {
		if j == 0 {
			b.WriteByte('?')
		} else {
			b.WriteByte('&')
		}
		b.WriteString(o.params[k][0])
		b.WriteByte('=')
		b.WriteString(o.params[k][1])
	}
	return b.String()
}

// update-mix sizing: groups of three, value objects and plain pages.
const (
	mixGroups = 300
	mixQuotes = 200
	mixPlain  = 900
	// minUpdateGap keeps an object's updates apart: Last-Modified has
	// one-second resolution and identifies a revision.
	minUpdateGap = 2 * time.Second
)

func (s *spec) buildUpdateMix(r, ur *rand.Rand) {
	horizon := time.Duration(s.seconds * float64(time.Second))
	add := func(o object) int {
		s.objects = append(s.objects, o)
		return len(s.objects) - 1
	}
	deltas := []time.Duration{3 * time.Second, 5 * time.Second, 8 * time.Second}
	// Pages in popularity order; every fourth is a group page followed
	// by its two embedded objects.
	for k := 0; k < mixGroups+mixPlain; k++ {
		delta := deltas[int(strat(k, stepDelta, r)*float64(len(deltas)))]
		if k%4 != 0 {
			add(object{
				path: fmt.Sprintf("/mix/plain/%04d.html", k), kind: kindPlain,
				size: int(logAt(strat(k, stepSize, r), 256, 8192)), delta: delta,
			})
			continue
		}
		name := fmt.Sprintf("g%04d", k)
		pi := add(object{
			path: fmt.Sprintf("/mix/%s/page.html", name), kind: kindPage,
			size: int(logAt(strat(k, stepSize, r), 2048, 16*1024)), delta: delta,
			group: name, groupDelta: 2 * time.Second,
		})
		for m := 0; m < 2; m++ {
			mi := add(object{
				path: fmt.Sprintf("/mix/%s/obj%d", name, m), kind: kindMember,
				size: int(logAt(strat(2*k+m, stepKind, r), 256, 4096)), delta: delta,
				group: name, groupDelta: 2 * time.Second,
			})
			s.objects[pi].members = append(s.objects[pi].members, mi)
		}
	}
	for q := 0; q < mixQuotes; q++ {
		start := math.Round((20+r.Float64()*180)*100) / 100
		add(object{
			path: fmt.Sprintf("/mix/quote/q%03d", q), kind: kindQuote,
			valueDelta: 0.10,
			values:     []float64{start},
		})
	}
	// Poisson updates with skewed per-object mean gaps (log-uniform),
	// each gap at least minUpdateGap.
	for i := range s.objects {
		o := &s.objects[i]
		lo, hi := 10.0, 600.0
		if o.kind == kindQuote {
			lo, hi = 3, 30
		}
		mean := logAt(strat(i, stepRate, r), lo, hi)
		at := time.Duration(ur.ExpFloat64() * mean * float64(time.Second))
		for at < horizon {
			o.updates = append(o.updates, at)
			if o.kind == kindQuote {
				prev := o.values[len(o.values)-1]
				step := math.Round(ur.NormFloat64()*8) / 100
				if step == 0 {
					step = 0.01
				}
				if prev+step < 1 {
					step = -step
				}
				o.values = append(o.values, math.Round((prev+step)*100)/100)
			}
			at += minUpdateGap + time.Duration(ur.ExpFloat64()*(mean-2)*float64(time.Second))
		}
	}
}

// updateRequests fills update-mix's schedule: page views (a group page
// and its two members due at the same instant, or one plain page) by
// Zipf popularity, plus quote GETs; 10% of requests are conditional on
// the revision the client last saw.
func (s *spec) updateRequests(r *rand.Rand) {
	var pages, quotes []int
	for i := range s.objects {
		switch s.objects[i].kind {
		case kindPage, kindPlain:
			pages = append(pages, i)
		case kindQuote:
			quotes = append(quotes, i)
		}
	}
	pz := newZipf(len(pages), 1.0)
	qz := newZipf(len(quotes), 1.0)
	n := int(s.rate * s.seconds)
	// Views arrive evenly; the expected view size sets their rate.
	const quoteShare = 0.3
	groupShare := float64(mixGroups) / float64(len(pages))
	perView := quoteShare + (1-quoteShare)*(1+2*groupShare)
	viewRate := s.rate / perView
	var v int
	for v = 0; len(s.reqs) < n; v++ {
		at := time.Duration(float64(v) / viewRate * float64(time.Second))
		var objs []int
		if r.Float64() < quoteShare {
			objs = []int{quotes[qz.sample(r)]}
		} else {
			p := pages[pz.sample(r)]
			objs = append([]int{p}, s.objects[p].members...)
		}
		for _, obj := range objs {
			s.reqs = append(s.reqs, request{at: at, obj: int32(obj), method: methodGet, target: s.objects[obj].path})
		}
	}
	s.reqs = s.reqs[:n]
	// Stretch or squeeze the views onto exactly the timed phase, so the
	// offered rate is the nominal one; then draw the conditional
	// requests against the revisions current at their final times.
	scale := s.seconds * viewRate / float64(v)
	for i := range s.reqs {
		req := &s.reqs[i]
		req.at = time.Duration(float64(req.at) * scale)
		if r.Float64() < 0.10 {
			req.method = methodIMS
			seen := req.at - time.Duration(r.Float64()*30*float64(time.Second))
			req.imsRev = int32(s.objects[req.obj].revAt(seen))
		}
	}
}

// revAt returns the revision current at offset at (0 before the first
// update).
func (o *object) revAt(at time.Duration) int {
	return sort.Search(len(o.updates), func(i int) bool { return o.updates[i] > at })
}

// revisions returns the number of revisions (including revision 0).
func (o *object) revisions() int { return len(o.updates) + 1 }

// lastModified returns revision rev's Last-Modified instant: base for
// revision 0, else the update's scheduled time truncated to the second
// (the host sets the origin's clock to the scheduled time for each Set).
func (o *object) lastModified(rev int, t0, base time.Time) time.Time {
	if rev == 0 {
		return base
	}
	return t0.Add(o.updates[rev-1]).Truncate(time.Second)
}

// revForLastModified maps a Last-Modified instant back to the revision
// carrying it; ok is false when no revision does.
func (o *object) revForLastModified(lm, t0, base time.Time) (int, bool) {
	if lm.Equal(base) {
		return 0, true
	}
	for rev := len(o.updates); rev >= 1; rev-- {
		if o.lastModified(rev, t0, base).Equal(lm) {
			return rev, true
		}
	}
	return 0, false
}

// contentType is the object's Content-Type.
func (o *object) contentType() string {
	if o.kind == kindQuote {
		return "text/plain; charset=utf-8"
	}
	return "text/html; charset=utf-8"
}

// body renders revision rev of object obj into dst (reused). Pages are a
// header naming the revision, then seeded filler; each revision after 0
// overwrites a 32-byte patch in place, so consecutive revisions differ
// in a few bytes and the push ladder can ship deltas. Quotes are a
// decimal value.
func (s *spec) body(dst []byte, obj, rev int) []byte {
	o := &s.objects[obj]
	dst = dst[:0]
	if o.kind == kindQuote {
		return strconv.AppendFloat(dst, o.values[rev], 'f', 2, 64)
	}
	dst = fmt.Appendf(dst, "%s r%06d\n", o.path, rev)
	head := len(dst)
	x := s.mix(o.path, 0)
	for len(dst) < o.size {
		x = splitmix(x)
		dst = append(dst, filler(x)...)
	}
	dst = dst[:o.size]
	if rev > 0 && o.size-head > 32 {
		p := s.mix(o.path, uint64(rev))
		off := head + int(p%uint64(o.size-head-32))
		for j := 0; j < 32; j += 8 {
			p = splitmix(p)
			copy(dst[off+j:off+j+8], filler(p))
		}
	}
	return dst
}

// bodyLen is the length of revision rev's body.
func (s *spec) bodyLen(obj, rev int) int {
	o := &s.objects[obj]
	if o.kind == kindQuote {
		return len(strconv.FormatFloat(o.values[rev], 'f', 2, 64))
	}
	return o.size
}

func (s *spec) mix(path string, rev uint64) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s|%d", s.seed, path, rev)
	return h.Sum64()
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

const alphabet = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 ."

// filler maps 64 random bits to 8 printable bytes.
func filler(x uint64) []byte {
	var b [8]byte
	for i := range b {
		b[i] = alphabet[(x>>(i*6))&63]
	}
	return b[:]
}

// schedules serializes the request and origin-update schedules; the
// determinism test compares these bytes across builds of the spec.
func (s *spec) schedules() []byte {
	var b bytes.Buffer
	put := func(v int64) { binary.Write(&b, binary.LittleEndian, v) }
	for _, r := range s.reqs {
		put(int64(r.at))
		put(int64(r.obj))
		put(int64(r.method))
		put(int64(r.imsRev))
		b.WriteString(r.target)
		b.WriteByte(0)
	}
	for i := range s.objects {
		o := &s.objects[i]
		b.WriteString(o.path)
		b.WriteByte(0)
		for _, u := range o.updates {
			put(int64(u))
		}
		for _, v := range o.values {
			put(int64(math.Float64bits(v)))
		}
		put(int64(o.size))
	}
	return b.Bytes()
}

// updateEvent is one scheduled origin Set.
type updateEvent struct {
	at  time.Duration
	obj int
	rev int
}

// updateSchedule merges every object's updates into one timeline.
func (s *spec) updateSchedule() []updateEvent {
	var ev []updateEvent
	for i := range s.objects {
		for r, at := range s.objects[i].updates {
			ev = append(ev, updateEvent{at: at, obj: i, rev: r + 1})
		}
	}
	sort.Slice(ev, func(a, b int) bool {
		if ev[a].at != ev[b].at {
			return ev[a].at < ev[b].at
		}
		return ev[a].obj < ev[b].obj
	})
	return ev
}

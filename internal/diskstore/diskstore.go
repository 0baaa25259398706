// Package diskstore is the persistent tier behind the proxy's sharded
// in-memory store: an append-only body pack plus a compact append-only
// metadata journal, the log-structured layout of Bitcask (Sheehy &
// Smith, 2010) kept behind the journal. It is deliberately ignorant of
// HTTP and of the consistency machinery — callers hand it Records
// (metadata) and bodies (bytes) and get both back after a restart.
//
// Layout on disk:
//
//	<dir>/index.log        append-only JSONL journal of Records
//	<dir>/blobs-<n>.pack   body bytes, appended back to back; each
//	                       Record names its pack n and byte offset
//
// A durable Get is one pread of exactly the record's size from an
// already-open pack, re-verified against the SHA-256 digest. A body
// shared by several keys (same digest) is stored once.
//
// Writes are asynchronous (single write-behind worker, per-key
// coalescing so only the latest state of a hot key hits disk) and
// ordered body-before-journal: a record is journaled only after its
// body write returned, so a crash can strand unreferenced pack bytes
// (dead space) but never a record whose body is torn — a record whose
// body runs past the end of its pack is pruned at Open, so a torn
// write degrades to a cache miss, never a partial serve.
//
// Dead space is reclaimed when it exceeds both the live bytes and
// reclaimMinDead: the worker copies the live bodies into pack n+1,
// commits by rewriting the journal with the new locations
// (temp+rename), then removes the old pack. A crash before the rename
// leaves an unreferenced new pack, one after it an unreferenced old
// pack; Open deletes either.
//
// A directory written by the earlier file-per-blob layout
// (blobs/<2-hex>/<sha256>) opens as an empty store: its records carry
// no pack location, so they are pruned and the blobs/ tree is removed.
// The disk tier starts cold once; it is a cache.
package diskstore

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Record is the durable metadata for one cached object. Body bytes live
// in a pack at the location the record names; everything the proxy
// needs to rehydrate an entry without re-learning it rides here.
type Record struct {
	Key          string        `json:"key"`
	Group        string        `json:"group,omitempty"`
	ContentType  string        `json:"ct,omitempty"`
	CacheControl string        `json:"cc,omitempty"`
	LastMod      time.Time     `json:"lm,omitempty"`
	HasLastMod   bool          `json:"hlm,omitempty"`
	ValidatedAt  time.Time     `json:"va"`
	Delta        time.Duration `json:"delta,omitempty"`
	GroupDelta   time.Duration `json:"gdelta,omitempty"`
	ValueDelta   float64       `json:"vdelta,omitempty"`
	// TTR is the learned refresh interval at persist time; zero means
	// "unknown, re-learn from InitialTTR" (e.g. value-paired entries
	// whose schedule belongs to the partner).
	TTR    time.Duration `json:"ttr,omitempty"`
	Digest string        `json:"digest"`
	Size   int64         `json:"size"`
	// Pack and Off locate the body: it is Size bytes at offset Off of
	// blobs-<Pack>.pack. The store sets both; packs number from 1, so a
	// zero Pack means no location (a file-per-blob record).
	Pack uint32 `json:"pack,omitempty"`
	Off  int64  `json:"off,omitempty"`
	// Del marks a journal tombstone; never set on live records.
	Del bool `json:"del,omitempty"`
}

// inPack reports whether the record's body lies within a pack of the
// given length.
func (r Record) inPack(length int64) bool {
	return r.Pack > 0 && r.Off >= 0 && r.Size >= 0 && r.Off <= length-r.Size
}

// Stats is a point-in-time snapshot of the store's state and lifetime
// counters.
type Stats struct {
	Records       int
	Bytes         int64
	PendingWrites int
	Writes        uint64
	WriteErrors   uint64
	Deletes       uint64
	Evictions     uint64
}

type pendingOp struct {
	rec  Record
	body []byte
	del  bool
}

// pack is one append-only body file. readers counts Gets reading it
// outside s.mu: a pack leaves s.packs under s.mu, and its file is only
// closed once those reads are done.
type pack struct {
	gen     uint32
	f       *os.File
	size    int64 // bytes written; owned by the worker (and Open)
	readers sync.WaitGroup
}

// blob is one stored body, shared by every live record with its digest.
type blob struct {
	pack uint32
	off  int64
	size int64
	refs int
}

// Store is a pack-backed body store with a journaled metadata index and
// a single asynchronous write-behind worker.
type Store struct {
	dir      string
	maxBytes int64

	mu      sync.Mutex
	records map[string]Record
	blobs   map[string]*blob // digest -> stored body
	bytes   int64            // record bytes, bounded by maxBytes
	live    int64            // bytes of distinct stored bodies
	packs   map[uint32]*pack
	cur     uint32 // the pack new bodies are appended to
	pending map[string]pendingOp
	order   []string // FIFO of keys with pending ops (coalesced)
	// inFlight counts the op the worker is applying, including any
	// reclaim it triggers.
	inFlight int
	// applying is the op the worker is applying: it has left pending
	// but not yet reached records, so lookups must still see it.
	applying *pendingOp
	idle     *sync.Cond

	journal    *os.File
	journalLen int // records appended since last compaction

	closed bool
	wake   chan struct{}
	done   chan struct{}

	writes    atomic.Uint64
	writeErrs atomic.Uint64
	deletes   atomic.Uint64
	evictions atomic.Uint64
	reclaims  atomic.Uint64
}

const journalName = "index.log"

// reclaimMinDead is the dead pack space below which reclaim never runs,
// however small the live set: copying a few live bodies to recover less
// than this is not worth a journal rewrite.
const reclaimMinDead = 4 << 20

func packPath(dir string, gen uint32) string {
	return filepath.Join(dir, "blobs-"+strconv.FormatUint(uint64(gen), 10)+".pack")
}

// packGen parses a pack file name, accepting only the canonical form
// packPath writes.
func packGen(name string) (uint32, bool) {
	num, ok := strings.CutPrefix(name, "blobs-")
	if !ok {
		return 0, false
	}
	if num, ok = strings.CutSuffix(num, ".pack"); !ok {
		return 0, false
	}
	n, err := strconv.ParseUint(num, 10, 32)
	if err != nil || n == 0 || strconv.FormatUint(n, 10) != num {
		return 0, false
	}
	return uint32(n), true
}

// Open loads (or creates) a disk store rooted at dir. maxBytes <= 0
// means unbounded. The journal is replayed tolerantly: undecodable
// lines (torn tail from a crash) are skipped, records whose pack is
// missing or too short for their body are pruned, packs no record
// references and temp files are removed, and the journal is compacted
// to one line per live record before the write-behind worker starts.
func Open(dir string, maxBytes int64) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("diskstore: %w", err)
	}
	// The file-per-blob layout: its records have no pack location and
	// are pruned by load, so its bodies are garbage.
	if err := os.RemoveAll(filepath.Join(dir, "blobs")); err != nil {
		return nil, fmt.Errorf("diskstore: %w", err)
	}
	s := &Store{
		dir:      dir,
		maxBytes: maxBytes,
		records:  make(map[string]Record),
		blobs:    make(map[string]*blob),
		packs:    make(map[uint32]*pack),
		pending:  make(map[string]pendingOp),
		wake:     make(chan struct{}, 1),
		done:     make(chan struct{}),
	}
	s.idle = sync.NewCond(&s.mu)
	if err := s.load(); err != nil {
		s.closePacks()
		return nil, err
	}
	s.enforceBudgetLocked("")
	if err := s.compact(); err != nil {
		s.closePacks()
		return nil, err
	}
	go s.worker()
	return s, nil
}

// replay reads the journal in dir into the live record set: later lines
// replace earlier ones, tombstones delete, and undecodable lines (a torn
// tail from a crash) are skipped. A missing journal is an empty store.
// Open and Verify share it, so they agree on what is live.
func replay(dir string) (map[string]Record, error) {
	live := make(map[string]Record)
	f, err := os.Open(filepath.Join(dir, journalName))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return live, nil
		}
		return nil, fmt.Errorf("diskstore: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(line, &rec); err != nil {
			continue // torn tail or garbage
		}
		if rec.Del {
			delete(live, rec.Key)
			continue
		}
		if rec.Key != "" && rec.Digest != "" {
			live[rec.Key] = rec
		}
	}
	if err := sc.Err(); err != nil && !errors.Is(err, bufio.ErrTooLong) {
		return nil, fmt.Errorf("diskstore: %w", err)
	}
	return live, nil
}

// load replays the journal into memory, opens the packs its records
// point into, prunes records whose body does not fit its pack, and
// sweeps unreferenced packs and temp files.
func (s *Store) load() error {
	live, err := replay(s.dir)
	if err != nil {
		return err
	}
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("diskstore: %w", err)
	}
	for _, de := range ents {
		name := de.Name()
		if strings.HasSuffix(name, ".tmp") {
			os.Remove(filepath.Join(s.dir, name))
			continue
		}
		gen, ok := packGen(name)
		if !ok {
			continue
		}
		f, err := os.OpenFile(filepath.Join(s.dir, name), os.O_RDWR, 0)
		if err != nil {
			continue // unreadable: its records are pruned below
		}
		fi, err := f.Stat()
		if err != nil {
			f.Close()
			continue
		}
		s.packs[gen] = &pack{gen: gen, f: f, size: fi.Size()}
	}
	for _, rec := range live {
		pk := s.packs[rec.Pack]
		if pk == nil || !rec.inPack(pk.size) {
			continue // a record is only as good as its bytes
		}
		if b := s.blobs[rec.Digest]; b != nil {
			// One copy per digest: later Puts and reclaim track this one.
			rec.Pack, rec.Off = b.pack, b.off
		}
		s.addLocked(rec)
	}
	referenced := make(map[uint32]bool, len(s.packs))
	for _, b := range s.blobs {
		referenced[b.pack] = true
	}
	for gen, pk := range s.packs {
		if !referenced[gen] {
			pk.f.Close()
			os.Remove(packPath(s.dir, gen))
			delete(s.packs, gen)
		} else if gen > s.cur {
			s.cur = gen
		}
	}
	if s.cur == 0 {
		s.cur = 1
	}
	return nil
}

// addLocked enters rec, whose body is already stored at its location,
// into the index. Called with s.mu held.
func (s *Store) addLocked(rec Record) {
	b := s.blobs[rec.Digest]
	if b == nil {
		b = &blob{pack: rec.Pack, off: rec.Off, size: rec.Size}
		s.blobs[rec.Digest] = b
		s.live += rec.Size
	}
	b.refs++
	s.records[rec.Key] = rec
	s.bytes += rec.Size
}

// dropLocked removes a record from the in-memory index and releases its
// body reference; an unreferenced body becomes dead pack space.
func (s *Store) dropLocked(key string) (Record, bool) {
	rec, ok := s.records[key]
	if !ok {
		return Record{}, false
	}
	delete(s.records, key)
	s.bytes -= rec.Size
	if b := s.blobs[rec.Digest]; b != nil {
		if b.refs--; b.refs <= 0 {
			delete(s.blobs, rec.Digest)
			s.live -= b.size
		}
	}
	return rec, true
}

// Put persists rec with body asynchronously. The record's Digest, Size
// and location are computed by the store; callers fill the metadata.
// Repeated Puts for the same key before the worker runs coalesce to the
// latest value.
func (s *Store) Put(rec Record, body []byte) {
	sum := sha256.Sum256(body)
	rec.Digest = hex.EncodeToString(sum[:])
	rec.Size = int64(len(body))
	rec.Pack, rec.Off = 0, 0
	rec.Del = false
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	if _, queued := s.pending[rec.Key]; !queued {
		s.order = append(s.order, rec.Key)
	}
	s.pending[rec.Key] = pendingOp{rec: rec, body: body}
	s.signal()
}

// Delete removes key from the store (pending queue and durable index).
// It reports whether the key was present in either.
func (s *Store) Delete(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, inRecords := s.records[key]
	op, inPending := s.pendingLocked(key)
	// Pending state wins: a queued delete means the key is already gone
	// from the caller's perspective, a queued put means it is present.
	live := inRecords
	if inPending {
		live = !op.del
	}
	if !live {
		return false
	}
	if s.closed {
		return false
	}
	if _, queued := s.pending[key]; !queued {
		s.order = append(s.order, key)
	}
	s.pending[key] = pendingOp{rec: Record{Key: key, Del: true}, del: true}
	s.signal()
	return true
}

// pendingLocked returns key's op that is not yet durable: the queued
// one, else the one the worker is applying right now. s.mu is held.
func (s *Store) pendingLocked(key string) (pendingOp, bool) {
	if op, ok := s.pending[key]; ok {
		return op, true
	}
	if s.applying != nil && s.applying.rec.Key == key {
		return *s.applying, true
	}
	return pendingOp{}, false
}

// Get returns the record and body for key, or ok=false. Pending writes
// are visible immediately (read-your-writes); a durable body is one
// pread from its pack, re-verified against its digest so corrupt bytes
// read as a miss. The read holds a reference on the pack, so a reclaim
// swapping packs underneath it waits instead of closing the file.
func (s *Store) Get(key string) (Record, []byte, bool) {
	s.mu.Lock()
	if op, ok := s.pendingLocked(key); ok {
		s.mu.Unlock()
		if op.del {
			return Record{}, nil, false
		}
		return op.rec, op.body, true
	}
	rec, ok := s.records[key]
	var pk *pack
	if ok {
		if pk = s.packs[rec.Pack]; pk != nil {
			pk.readers.Add(1)
		}
	}
	s.mu.Unlock()
	if pk == nil {
		return Record{}, nil, false
	}
	body := make([]byte, rec.Size)
	_, err := pk.f.ReadAt(body, rec.Off)
	pk.readers.Done()
	if err != nil || !digestMatches(body, rec.Digest) {
		return Record{}, nil, false
	}
	return rec, body, true
}

// digestMatches reports whether digest is the hex SHA-256 of body,
// without allocating.
func digestMatches(body []byte, digest string) bool {
	sum := sha256.Sum256(body)
	var buf [2 * sha256.Size]byte
	hex.Encode(buf[:], sum[:])
	return string(buf[:]) == digest
}

// Meta returns the durable-or-pending record for key without reading
// the body.
func (s *Store) Meta(key string) (Record, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if op, ok := s.pendingLocked(key); ok {
		if op.del {
			return Record{}, false
		}
		return op.rec, true
	}
	rec, ok := s.records[key]
	return rec, ok
}

// Keys returns the keys of all live records (durable plus pending
// puts, minus pending deletes), in no particular order.
func (s *Store) Keys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := make([]string, 0, len(s.records)+len(s.pending))
	seen := make(map[string]bool, len(s.records))
	for key, op := range s.pending {
		seen[key] = true
		if !op.del {
			keys = append(keys, key)
		}
	}
	for key := range s.records {
		if !seen[key] {
			keys = append(keys, key)
		}
	}
	return keys
}

// Len reports the number of live records (pending-aware).
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.records)
	for key, op := range s.pending {
		_, durable := s.records[key]
		if op.del && durable {
			n--
		} else if !op.del && !durable {
			n++
		}
	}
	return n
}

// Stats snapshots counters and sizes.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	records, bytes, pend := len(s.records), s.bytes, len(s.order)
	s.mu.Unlock()
	return Stats{
		Records:       records,
		Bytes:         bytes,
		PendingWrites: pend,
		Writes:        s.writes.Load(),
		WriteErrors:   s.writeErrs.Load(),
		Deletes:       s.deletes.Load(),
		Evictions:     s.evictions.Load(),
	}
}

// Flush blocks until the write-behind queue is drained.
func (s *Store) Flush() {
	s.mu.Lock()
	for len(s.order) > 0 || s.inFlight > 0 {
		s.idle.Wait()
	}
	s.mu.Unlock()
}

// Close drains the queue, stops the worker, and closes the journal and
// the packs. The store is unusable afterwards: Get reads as a miss.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	s.signal()
	<-s.done
	s.closePacks()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.journal != nil {
		err := s.journal.Close()
		s.journal = nil
		return err
	}
	return nil
}

// closePacks detaches every pack and closes it once its readers finish.
func (s *Store) closePacks() {
	s.mu.Lock()
	packs := make([]*pack, 0, len(s.packs))
	for _, pk := range s.packs {
		packs = append(packs, pk)
	}
	s.packs = nil
	s.mu.Unlock()
	for _, pk := range packs {
		pk.readers.Wait()
		pk.f.Close()
	}
}

func (s *Store) signal() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// worker is the single write-behind goroutine: it pops coalesced ops in
// FIFO order and applies them until Close drains the queue, reclaiming
// dead pack space after any op that leaves too much of it.
func (s *Store) worker() {
	defer close(s.done)
	for {
		s.mu.Lock()
		for len(s.order) == 0 {
			if s.closed {
				s.mu.Unlock()
				return
			}
			s.idle.Broadcast()
			s.mu.Unlock()
			<-s.wake
			s.mu.Lock()
		}
		key := s.order[0]
		s.order = s.order[1:]
		op, ok := s.pending[key]
		if !ok {
			s.mu.Unlock()
			continue
		}
		delete(s.pending, key)
		s.inFlight++
		s.applying = &op
		s.mu.Unlock()

		if op.del {
			s.applyDelete(key)
		} else {
			s.applyPut(op.rec, op.body)
		}

		s.mu.Lock()
		s.applying = nil
		reclaim := s.deadLocked() > max(s.live, reclaimMinDead)
		s.mu.Unlock()
		if reclaim {
			s.reclaim()
		}

		s.mu.Lock()
		s.inFlight--
		if len(s.order) == 0 && s.inFlight == 0 {
			s.idle.Broadcast()
		}
		s.mu.Unlock()
	}
}

// applyPut appends the body to the current pack (unless a live record
// already stores the same digest), journals the record, updates the
// index, and enforces the byte budget. Body-before-journal: a crash
// between the two strands dead pack bytes, never a record without them.
func (s *Store) applyPut(rec Record, body []byte) {
	s.mu.Lock()
	b := s.blobs[rec.Digest]
	s.mu.Unlock()
	if b != nil {
		rec.Pack, rec.Off = b.pack, b.off
	} else {
		var err error
		if rec.Pack, rec.Off, err = s.appendBody(body); err != nil {
			s.writeErrs.Add(1)
			return
		}
	}
	s.mu.Lock()
	if err := s.appendLocked(rec); err != nil {
		s.mu.Unlock()
		s.writeErrs.Add(1)
		return
	}
	s.dropLocked(rec.Key)
	s.addLocked(rec)
	s.enforceBudgetLocked(rec.Key)
	s.maybeCompactLocked()
	s.mu.Unlock()
	s.writes.Add(1)
}

func (s *Store) applyDelete(key string) {
	s.mu.Lock()
	if _, had := s.dropLocked(key); !had {
		s.mu.Unlock()
		return
	}
	if err := s.appendLocked(Record{Key: key, Del: true}); err != nil {
		s.writeErrs.Add(1)
	}
	s.maybeCompactLocked()
	s.mu.Unlock()
	s.deletes.Add(1)
}

// appendBody writes body at the end of the current pack, creating the
// pack on first use, and returns the body's location. Worker only.
func (s *Store) appendBody(body []byte) (uint32, int64, error) {
	s.mu.Lock()
	gen, pk := s.cur, s.packs[s.cur]
	s.mu.Unlock()
	if pk == nil {
		// Nothing references this generation, so whatever a crash left
		// under its name is garbage.
		f, err := os.OpenFile(packPath(s.dir, gen), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
		if err != nil {
			return 0, 0, err
		}
		pk = &pack{gen: gen, f: f}
		s.mu.Lock()
		s.packs[gen] = pk
		s.mu.Unlock()
	}
	off := pk.size
	if _, err := pk.f.WriteAt(body, off); err != nil {
		// Unreferenced bytes past pk.size: the next append overwrites them.
		return 0, 0, err
	}
	pk.size += int64(len(body))
	return gen, off, nil
}

// deadLocked is the pack space no live body occupies. Called with s.mu
// held.
func (s *Store) deadLocked() int64 {
	var total int64
	for _, pk := range s.packs {
		total += pk.size
	}
	return total - s.live
}

// reclaim moves every live body into a fresh pack and removes the old
// packs, in three crash-safe steps: copy, commit (the journal rename),
// remove. Worker only.
func (s *Store) reclaim() {
	np, moved, err := s.copyLive()
	if err != nil {
		s.writeErrs.Add(1)
		return
	}
	old, err := s.commitReclaim(np, moved)
	if err != nil {
		np.f.Close()
		os.Remove(packPath(s.dir, np.gen))
		s.writeErrs.Add(1)
		return
	}
	s.dropPacks(old)
	s.reclaims.Add(1)
}

// copyLive writes every live body, in pack order, into pack s.cur+1 and
// returns it with each digest's new offset. Nothing references the new
// pack until commitReclaim.
func (s *Store) copyLive() (*pack, map[string]int64, error) {
	type src struct {
		digest string
		b      blob
		pk     *pack
	}
	s.mu.Lock()
	gen := s.cur + 1
	srcs := make([]src, 0, len(s.blobs))
	for d, b := range s.blobs {
		srcs = append(srcs, src{d, *b, s.packs[b.pack]})
	}
	s.mu.Unlock()
	sort.Slice(srcs, func(i, j int) bool {
		if srcs[i].b.pack != srcs[j].b.pack {
			return srcs[i].b.pack < srcs[j].b.pack
		}
		return srcs[i].b.off < srcs[j].b.off
	})
	f, err := os.OpenFile(packPath(s.dir, gen), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, nil, err
	}
	np := &pack{gen: gen, f: f}
	moved := make(map[string]int64, len(srcs))
	w := bufio.NewWriterSize(f, 256<<10)
	var buf []byte
	for _, c := range srcs {
		if int64(cap(buf)) < c.b.size {
			buf = make([]byte, c.b.size)
		}
		buf = buf[:c.b.size]
		// Only the worker closes packs, so the source stays open.
		if _, err = c.pk.f.ReadAt(buf, c.b.off); err != nil {
			break
		}
		if _, err = w.Write(buf); err != nil {
			break
		}
		moved[c.digest] = np.size
		np.size += c.b.size
	}
	if err == nil {
		err = w.Flush()
	}
	if err == nil {
		// The commit deletes the old pack: the copies must be on disk
		// before the journal names them.
		err = f.Sync()
	}
	if err != nil {
		f.Close()
		os.Remove(packPath(s.dir, gen))
		return nil, nil, err
	}
	return np, moved, nil
}

// commitReclaim rewrites the journal with every record relocated into
// np — the commit point — then switches the index and appends over to
// np. It returns the packs np replaced.
func (s *Store) commitReclaim(np *pack, moved map[string]int64) ([]*pack, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.writeJournalLocked(np.gen, moved); err != nil {
		return nil, err
	}
	for d, b := range s.blobs {
		b.pack, b.off = np.gen, moved[d]
	}
	for key, rec := range s.records {
		rec.Pack, rec.Off = np.gen, moved[rec.Digest]
		s.records[key] = rec
	}
	old := make([]*pack, 0, len(s.packs))
	for _, pk := range s.packs {
		old = append(old, pk)
	}
	s.packs = map[uint32]*pack{np.gen: np}
	s.cur = np.gen
	return old, nil
}

// dropPacks closes and removes packs no record references any more,
// once the Gets still reading them are done.
func (s *Store) dropPacks(old []*pack) {
	for _, pk := range old {
		pk.readers.Wait()
		pk.f.Close()
		os.Remove(packPath(s.dir, pk.gen))
	}
}

// appendLocked appends one journal line. Called with s.mu held.
func (s *Store) appendLocked(rec Record) error {
	if s.journal == nil {
		f, err := os.OpenFile(filepath.Join(s.dir, journalName),
			os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		s.journal = f
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	line = append(line, '\n')
	if _, err := s.journal.Write(line); err != nil {
		return err
	}
	s.journalLen++
	return nil
}

// enforceBudgetLocked evicts oldest-validated records until bytes fit
// the budget, sparing protect (the key just written).
func (s *Store) enforceBudgetLocked(protect string) {
	if s.maxBytes <= 0 || s.bytes <= s.maxBytes {
		return
	}
	type aged struct {
		key string
		at  time.Time
	}
	victims := make([]aged, 0, len(s.records))
	for key, rec := range s.records {
		if key == protect {
			continue
		}
		victims = append(victims, aged{key, rec.ValidatedAt})
	}
	sort.Slice(victims, func(i, j int) bool { return victims[i].at.Before(victims[j].at) })
	for _, v := range victims {
		if s.bytes <= s.maxBytes {
			break
		}
		if _, had := s.dropLocked(v.key); !had {
			continue
		}
		if err := s.appendLocked(Record{Key: v.key, Del: true}); err != nil {
			s.writeErrs.Add(1)
		}
		s.evictions.Add(1)
	}
}

// maybeCompactLocked rewrites the journal when it has grown well past
// the live record count. Called with s.mu held.
func (s *Store) maybeCompactLocked() {
	if s.journalLen > 1024 && s.journalLen > 4*len(s.records) {
		if err := s.writeJournalLocked(0, nil); err != nil {
			s.writeErrs.Add(1)
		}
	}
}

// compact rewrites the journal to one line per live record.
func (s *Store) compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.writeJournalLocked(0, nil)
}

// writeJournalLocked replaces the journal, via temp+rename, with one
// line per live record. Records whose digest is in moved are written
// relocated to offset moved[digest] of pack gen.
func (s *Store) writeJournalLocked(gen uint32, moved map[string]int64) error {
	tmp, err := os.CreateTemp(s.dir, journalName+".*.tmp")
	if err != nil {
		return fmt.Errorf("diskstore: %w", err)
	}
	fail := func(err error) error {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("diskstore: %w", err)
	}
	w := bufio.NewWriter(tmp)
	keys := make([]string, 0, len(s.records))
	for key := range s.records {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		rec := s.records[key]
		if off, ok := moved[rec.Digest]; ok {
			rec.Pack, rec.Off = gen, off
		}
		line, err := json.Marshal(rec)
		if err != nil {
			return fail(err)
		}
		line = append(line, '\n')
		if _, err := w.Write(line); err != nil {
			return fail(err)
		}
	}
	if err := w.Flush(); err != nil {
		return fail(err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("diskstore: %w", err)
	}
	if s.journal != nil {
		s.journal.Close()
		s.journal = nil
	}
	if err := os.Rename(tmp.Name(), filepath.Join(s.dir, journalName)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("diskstore: %w", err)
	}
	s.journalLen = len(s.records)
	return nil
}

// Verify is a read-only consistency check over a store directory: the
// journal must parse (torn tails tolerated), and every live record's
// body must lie within its pack and match its digest. Unreferenced
// packs and pack bytes are fine (they are garbage, not corruption). It
// returns the live record count, which is what Open keeps whenever
// Verify succeeds. Used by cmd/diskcheck and the crash-consistency
// smoke test.
func Verify(dir string) (int, error) {
	live, err := replay(dir)
	if err != nil {
		return 0, err
	}
	type packInfo struct {
		f    *os.File
		size int64
	}
	packs := make(map[uint32]packInfo)
	defer func() {
		for _, p := range packs {
			p.f.Close()
		}
	}()
	keys := make([]string, 0, len(live))
	for key := range live {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		rec := live[key]
		if rec.Pack == 0 {
			return 0, fmt.Errorf("diskstore: record %q: no pack location (file-per-blob layout; Open starts it empty)", key)
		}
		p, ok := packs[rec.Pack]
		if !ok {
			f, err := os.Open(packPath(dir, rec.Pack))
			if err != nil {
				return 0, fmt.Errorf("diskstore: record %q: pack missing: %w", key, err)
			}
			fi, err := f.Stat()
			if err != nil {
				f.Close()
				return 0, fmt.Errorf("diskstore: record %q: %w", key, err)
			}
			p = packInfo{f, fi.Size()}
			packs[rec.Pack] = p
		}
		if !rec.inPack(p.size) {
			return 0, fmt.Errorf("diskstore: record %q: body %d+%d runs past the end of pack %d (%d bytes)",
				key, rec.Off, rec.Size, rec.Pack, p.size)
		}
		body := make([]byte, rec.Size)
		if _, err := p.f.ReadAt(body, rec.Off); err != nil {
			return 0, fmt.Errorf("diskstore: record %q: %w", key, err)
		}
		if !digestMatches(body, rec.Digest) {
			return 0, fmt.Errorf("diskstore: record %q: body digest mismatch", key)
		}
	}
	return len(live), nil
}

package diskstore

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

var t0 = time.Unix(1_700_000_000, 0)

func mustOpen(t *testing.T, dir string, maxBytes int64) *Store {
	t.Helper()
	s, err := Open(dir, maxBytes)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return s
}

func TestPutGetRoundtripAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, 0)
	rec := Record{
		Key:         "/news/front",
		Group:       "news",
		ContentType: "text/html",
		LastMod:     t0,
		HasLastMod:  true,
		ValidatedAt: t0.Add(3 * time.Second),
		Delta:       40 * time.Second,
		GroupDelta:  10 * time.Second,
		TTR:         90 * time.Second,
	}
	body := []byte("front page body")
	s.Put(rec, body)

	// Read-your-writes: visible before the worker necessarily ran.
	got, gotBody, ok := s.Get("/news/front")
	if !ok || string(gotBody) != string(body) || got.TTR != rec.TTR {
		t.Fatalf("pre-flush Get = %+v, %q, %v", got, gotBody, ok)
	}

	s.Flush()
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s2 := mustOpen(t, dir, 0)
	defer s2.Close()
	got, gotBody, ok = s2.Get("/news/front")
	if !ok {
		t.Fatal("record lost across reopen")
	}
	if string(gotBody) != string(body) {
		t.Fatalf("body = %q, want %q", gotBody, body)
	}
	if got.Group != "news" || got.TTR != 90*time.Second || !got.LastMod.Equal(t0) ||
		!got.HasLastMod || got.Delta != 40*time.Second || got.GroupDelta != 10*time.Second ||
		!got.ValidatedAt.Equal(t0.Add(3*time.Second)) {
		t.Fatalf("metadata mangled across reopen: %+v", got)
	}
}

func TestCoalescingKeepsLatest(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, 0)
	defer s.Close()
	for i := 0; i < 50; i++ {
		s.Put(Record{Key: "/hot", ValidatedAt: t0.Add(time.Duration(i) * time.Second)},
			[]byte(fmt.Sprintf("v%d", i)))
	}
	s.Flush()
	rec, body, ok := s.Get("/hot")
	if !ok || string(body) != "v49" {
		t.Fatalf("Get = %q, %v; want v49", body, ok)
	}
	if !rec.ValidatedAt.Equal(t0.Add(49 * time.Second)) {
		t.Fatalf("ValidatedAt = %v, want latest", rec.ValidatedAt)
	}
	if n := s.Len(); n != 1 {
		t.Fatalf("Len = %d, want 1", n)
	}
}

func TestDeleteRemovesDurablyAndReportsPresence(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, 0)
	s.Put(Record{Key: "/a", ValidatedAt: t0}, []byte("aaa"))
	s.Flush()
	if !s.Delete("/a") {
		t.Fatal("Delete of present key = false")
	}
	if s.Delete("/a") {
		t.Fatal("Delete of absent key = true")
	}
	if _, _, ok := s.Get("/a"); ok {
		t.Fatal("Get after Delete = ok")
	}
	s.Flush()
	s.Close()
	s2 := mustOpen(t, dir, 0)
	defer s2.Close()
	if _, _, ok := s2.Get("/a"); ok {
		t.Fatal("deleted record resurrected after reopen")
	}
	// Its bytes are reclaimed too: no record references the pack any
	// more, so the reopen swept it.
	if packs := packFiles(t, dir); len(packs) != 0 {
		t.Fatalf("packs %v survived the delete of their only record", packs)
	}
}

func TestTornJournalTailTolerated(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, 0)
	s.Put(Record{Key: "/ok", ValidatedAt: t0}, []byte("good"))
	s.Flush()
	s.Close()

	// Simulate a crash mid-append: garbage half-line at the tail.
	f, err := os.OpenFile(filepath.Join(dir, journalName), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"key":"/torn","digest":"deadbeef","si`)
	f.Close()

	if _, err := Verify(dir); err != nil {
		t.Fatalf("Verify on torn tail: %v", err)
	}
	s2 := mustOpen(t, dir, 0)
	defer s2.Close()
	if _, _, ok := s2.Get("/ok"); !ok {
		t.Fatal("good record lost to torn tail")
	}
	if _, _, ok := s2.Get("/torn"); ok {
		t.Fatal("torn record served")
	}
}

func TestRecordWithoutBlobPrunedAtOpen(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, 0)
	s.Put(Record{Key: "/x", ValidatedAt: t0}, []byte("xxxx"))
	s.Flush()
	s.Close()

	// Corrupt: truncate the pack so the record's body runs past its end.
	packs := packFiles(t, dir)
	if len(packs) != 1 {
		t.Fatalf("packs = %v, want one", packs)
	}
	if err := os.Truncate(packs[0], 2); err != nil {
		t.Fatal(err)
	}
	if _, err := Verify(dir); err == nil || !strings.Contains(err.Error(), "runs past the end") {
		t.Fatalf("Verify with a truncated pack = %v, want a body past the end", err)
	}
	s2 := mustOpen(t, dir, 0)
	defer s2.Close()
	if _, _, ok := s2.Get("/x"); ok {
		t.Fatal("record whose body runs past its pack served")
	}
	// Open pruned and compacted, so the directory verifies clean again.
	s2.Close()
	if _, err := Verify(dir); err != nil {
		t.Fatalf("Verify after pruning reopen: %v", err)
	}
}

func TestCorruptBlobReadsAsMiss(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, 0)
	s.Put(Record{Key: "/y", ValidatedAt: t0}, []byte("yyyy"))
	s.Flush()

	rec, ok := s.Meta("/y")
	if !ok {
		t.Fatal("record missing after flush")
	}
	// Same size, different bytes: the range check passes, the digest
	// check must not.
	f, err := os.OpenFile(packPath(dir, rec.Pack), os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("YYYY"), rec.Off); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, _, ok := s.Get("/y"); ok {
		t.Fatal("digest-mismatched body served")
	}
	s.Close()
	if _, err := Verify(dir); err == nil || !strings.Contains(err.Error(), `"/y"`) {
		t.Fatalf("Verify over corrupt body bytes = %v, want an error naming /y", err)
	}
}

func TestBudgetEvictsOldestValidated(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, 30) // room for three 10-byte bodies
	for i := 0; i < 5; i++ {
		s.Put(Record{
			Key:         fmt.Sprintf("/obj/%d", i),
			ValidatedAt: t0.Add(time.Duration(i) * time.Minute),
		}, []byte(fmt.Sprintf("body-%05d", i)))
		s.Flush()
	}
	st := s.Stats()
	if st.Bytes > 30 {
		t.Fatalf("bytes %d over budget", st.Bytes)
	}
	if st.Evictions == 0 {
		t.Fatal("no evictions recorded")
	}
	// Oldest-validated go first: 0 and 1 out, 4 (newest) must remain.
	if _, _, ok := s.Get("/obj/0"); ok {
		t.Fatal("oldest record survived budget")
	}
	if _, _, ok := s.Get("/obj/4"); !ok {
		t.Fatal("newest record evicted")
	}
	s.Close()
	if _, err := Verify(dir); err != nil {
		t.Fatalf("Verify after budget eviction: %v", err)
	}
}

func TestOrphanBlobSweptAtOpen(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, 0)
	s.Put(Record{Key: "/kept", ValidatedAt: t0}, []byte("kept"))
	s.Close()
	kept := packFiles(t, dir)
	orphan := packPath(dir, 7)
	os.WriteFile(orphan, []byte("stray"), 0o644)
	tmp := filepath.Join(dir, journalName+".123.tmp")
	os.WriteFile(tmp, []byte("half"), 0o644)

	if _, err := Verify(dir); err != nil {
		t.Fatalf("Verify with an orphan pack: %v", err)
	}
	s2 := mustOpen(t, dir, 0)
	defer s2.Close()
	if _, err := os.Stat(orphan); err == nil {
		t.Fatal("orphan pack not swept")
	}
	if _, err := os.Stat(tmp); err == nil {
		t.Fatal("temp file not swept")
	}
	if got := packFiles(t, dir); !slices.Equal(got, kept) {
		t.Fatalf("packs after sweep = %v, want the referenced %v", got, kept)
	}
	if _, body, ok := s2.Get("/kept"); !ok || string(body) != "kept" {
		t.Fatalf("referenced record after sweep = %q, %v", body, ok)
	}
}

func TestSharedDigestRefcount(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, 0)
	defer s.Close()
	body := []byte("shared body")
	s.Put(Record{Key: "/one", ValidatedAt: t0}, body)
	s.Put(Record{Key: "/two", ValidatedAt: t0}, body)
	s.Flush()
	// Stored once.
	if got := packBytes(t, dir); got != int64(len(body)) {
		t.Fatalf("pack bytes = %d, want one copy (%d)", got, len(body))
	}
	if !s.Delete("/one") {
		t.Fatal("Delete /one = false")
	}
	s.Flush()
	// /two still reads fine: the shared body must survive /one's delete.
	if _, got, ok := s.Get("/two"); !ok || string(got) != string(body) {
		t.Fatalf("shared blob lost: %q %v", got, ok)
	}
}

func TestJournalCompactionBoundsGrowth(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, 0)
	for i := 0; i < 1200; i++ {
		s.Put(Record{Key: "/churn", ValidatedAt: t0.Add(time.Duration(i) * time.Second)},
			[]byte(fmt.Sprintf("v%d", i)))
		s.Flush() // force a distinct journal append past coalescing
	}
	s.Close()
	fi, err := os.Stat(filepath.Join(dir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	// 1200 distinct appends of ~150 bytes would be ~180k uncompacted; the
	// compaction threshold keeps the tail bounded well below that.
	if fi.Size() > 64<<10 {
		t.Fatalf("journal grew to %d bytes; compaction not firing", fi.Size())
	}
	if _, err := Verify(dir); err != nil {
		t.Fatalf("Verify after churn: %v", err)
	}
}

// testBody returns size bytes that differ for every i.
func testBody(i, size int) []byte {
	b := make([]byte, size)
	for j := range b {
		b[j] = byte(i*131 + j)
	}
	binary.LittleEndian.PutUint64(b, uint64(i))
	return b
}

// packFiles lists dir's pack files, sorted.
func packFiles(t testing.TB, dir string) []string {
	t.Helper()
	packs, err := filepath.Glob(filepath.Join(dir, "blobs-*.pack"))
	if err != nil {
		t.Fatal(err)
	}
	return packs
}

// packBytes sums the sizes of dir's pack files.
func packBytes(t testing.TB, dir string) int64 {
	t.Helper()
	var n int64
	for _, p := range packFiles(t, dir) {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		n += fi.Size()
	}
	return n
}

// assertOnlyStoreFiles fails unless dir holds nothing but the journal
// and pack files: no per-body file, no leftover temp.
func assertOnlyStoreFiles(t *testing.T, dir string) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range ents {
		if _, isPack := packGen(de.Name()); (isPack || de.Name() == journalName) && de.Type().IsRegular() {
			continue
		}
		t.Errorf("unexpected %s in the store directory", de.Name())
	}
}

// expectRecords fails unless s serves exactly want's bodies.
func expectRecords(t *testing.T, s *Store, want map[string][]byte) {
	t.Helper()
	if n := s.Len(); n != len(want) {
		t.Errorf("Len = %d, want %d", n, len(want))
	}
	for key, body := range want {
		if _, got, ok := s.Get(key); !ok || !bytes.Equal(got, body) {
			t.Errorf("Get(%s) = %d bytes, %v; want its %d-byte body", key, len(got), ok, len(body))
		}
	}
}

func TestReclaimBoundsPackUnderChurn(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, 0)
	const keys, size = 16, 32 << 10
	want := make(map[string][]byte)
	for i := 0; i < 640; i++ {
		key := fmt.Sprintf("/churn/%d", i%keys)
		want[key] = testBody(i, size)
		s.Put(Record{Key: key, ValidatedAt: t0}, want[key])
		if i%keys != keys-1 {
			continue
		}
		s.Flush()
		s.mu.Lock()
		live := s.live
		s.mu.Unlock()
		if got, bound := packBytes(t, dir), 2*live+reclaimMinDead; got > bound {
			t.Fatalf("after %d puts: packs hold %d bytes, over 2×live (%d) + %d", i+1, got, live, reclaimMinDead)
		}
	}
	if s.reclaims.Load() == 0 {
		t.Fatal("20 MiB of churn over 512 KiB of live bodies never reclaimed")
	}
	expectRecords(t, s, want)
	s.Close()
	assertOnlyStoreFiles(t, dir)
	if n, err := Verify(dir); err != nil || n != keys {
		t.Fatalf("Verify after churn = %d, %v; want %d records", n, err, keys)
	}
	s2 := mustOpen(t, dir, 0)
	defer s2.Close()
	expectRecords(t, s2, want)
}

// TestGetDuringReclaimNeverMisses: reclaim relocates every body while
// readers keep hitting durable records; no read may miss (the pack a
// read started on stays open until it finishes) or see a wrong body.
func TestGetDuringReclaimNeverMisses(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, 0)
	defer s.Close()
	const stable, size = 8, 4 << 10
	for i := 0; i < stable; i++ {
		s.Put(Record{Key: fmt.Sprintf("/stable/%d", i), ValidatedAt: t0}, testBody(i, size))
	}
	s.Flush()

	stop := make(chan struct{})
	failed := make(chan string, 2)
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := r; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := i % stable
				_, got, ok := s.Get(fmt.Sprintf("/stable/%d", k))
				if !ok || !bytes.Equal(got, testBody(k, size)) {
					failed <- fmt.Sprintf("Get(/stable/%d) = %d bytes, ok=%v", k, len(got), ok)
					return
				}
			}
		}(r)
	}
	for i := 0; s.reclaims.Load() < 3; i++ {
		if i == 2000 {
			t.Fatal("churn never reclaimed three times")
		}
		s.Put(Record{Key: "/churn", ValidatedAt: t0}, testBody(stable+i, 64<<10))
		s.Flush()
	}
	close(stop)
	wg.Wait()
	select {
	case msg := <-failed:
		t.Fatal(msg)
	default:
	}
}

// snapshot copies dir's files as a crash at this instant would leave
// them.
func snapshot(t *testing.T, dir string) string {
	t.Helper()
	dst := t.TempDir()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range ents {
		b, err := os.ReadFile(filepath.Join(dir, de.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, de.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestReclaimCrashAtEachStep runs the reclaim steps by hand and crashes
// between them: after the copy (a new pack the journal does not name
// yet) and after the commit (an old pack the journal no longer names).
// Every directory reopens with every record intact and only the pack
// its journal references.
func TestReclaimCrashAtEachStep(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, 0)
	want := make(map[string][]byte)
	for i := 0; i < 30; i++ {
		key := fmt.Sprintf("/r/%d", i%10)
		want[key] = testBody(i, 1<<10)
		s.Put(Record{Key: key, ValidatedAt: t0}, want[key])
		s.Flush() // every version reaches the pack: 2/3 of it is dead
	}
	want["/dup"] = want["/r/3"] // a shared body moves once
	s.Put(Record{Key: "/dup", ValidatedAt: t0}, want["/dup"])
	s.Flush()

	// The worker is idle after Flush, so the steps can run here.
	np, moved, err := s.copyLive()
	if err != nil {
		t.Fatalf("copy: %v", err)
	}
	copied := snapshot(t, dir)
	old, err := s.commitReclaim(np, moved)
	if err != nil {
		t.Fatalf("commit: %v", err)
	}
	committed := snapshot(t, dir)
	s.dropPacks(old)
	expectRecords(t, s, want)
	s.Close()

	for name, d := range map[string]string{
		"crash after copy":   copied,
		"crash after commit": committed,
		"completed":          dir,
	} {
		t.Run(name, func(t *testing.T) {
			if n, err := Verify(d); err != nil || n != len(want) {
				t.Fatalf("Verify = %d, %v; want %d records", n, err, len(want))
			}
			s := mustOpen(t, d, 0)
			expectRecords(t, s, want)
			s.Close()
			if packs := packFiles(t, d); len(packs) != 1 {
				t.Errorf("packs after reopen = %v, want only the referenced one", packs)
			}
			assertOnlyStoreFiles(t, d)
		})
	}
}

// TestOldLayoutOpensEmpty: a directory from the file-per-blob layout
// has records without pack locations. It opens as an empty store, its
// blobs/ tree is removed, and the store works in the pack layout after.
func TestOldLayoutOpensEmpty(t *testing.T) {
	dir := t.TempDir()
	body := []byte("old body")
	sum := sha256.Sum256(body)
	digest := hex.EncodeToString(sum[:])
	if err := os.MkdirAll(filepath.Join(dir, "blobs", digest[:2]), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "blobs", digest[:2], digest), body, 0o644); err != nil {
		t.Fatal(err)
	}
	line := fmt.Sprintf(`{"key":"/old","va":"2023-11-14T22:13:20Z","digest":%q,"size":%d}`+"\n", digest, len(body))
	if err := os.WriteFile(filepath.Join(dir, journalName), []byte(line), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Verify(dir); err == nil || !strings.Contains(err.Error(), "no pack location") {
		t.Errorf("Verify over the old layout = %v, want a record with no pack location", err)
	}

	s := mustOpen(t, dir, 0)
	if n := s.Len(); n != 0 {
		t.Errorf("Len = %d, want an empty store", n)
	}
	if _, _, ok := s.Get("/old"); ok {
		t.Error("a file-per-blob record was served")
	}
	if _, err := os.Stat(filepath.Join(dir, "blobs")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("blobs/ tree survived Open: %v", err)
	}
	s.Put(Record{Key: "/new", ValidatedAt: t0}, body)
	s.Close()
	if n, err := Verify(dir); err != nil || n != 1 {
		t.Fatalf("Verify after a write = %d, %v; want 1 record", n, err)
	}
	assertOnlyStoreFiles(t, dir)
}

// FuzzDiskStoreOpen feeds arbitrary journal and pack bytes to Open:
// it must not panic, every live key must read as its digest's body or
// as a miss, and whenever Verify accepts the directory Open keeps
// every record it counted.
func FuzzDiskStoreOpen(f *testing.F) {
	seed := f.TempDir()
	s, err := Open(seed, 0)
	if err != nil {
		f.Fatal(err)
	}
	s.Put(Record{Key: "/a", ValidatedAt: t0}, []byte("alpha"))
	s.Put(Record{Key: "/b", ValidatedAt: t0}, []byte("beta"))
	s.Put(Record{Key: "/c", ValidatedAt: t0}, []byte("alpha"))
	s.Close()
	journal, err := os.ReadFile(filepath.Join(seed, journalName))
	if err != nil {
		f.Fatal(err)
	}
	pack, err := os.ReadFile(packPath(seed, 1))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(journal, pack)
	f.Add(journal, pack[:3])
	f.Add(journal, []byte("ALPHAbeta"))
	f.Add(append(journal, `{"key":"/a","del":true}`+"\n"+`{"key":"/t","digest":"x","size":9,"pack":1,"off":-1}`...), pack)
	f.Add([]byte(`{"key":"/z","digest":"00","size":0,"pack":1}`+"\n"+`{"key":"/y","digest":"01","size":1}`), []byte{})
	f.Fuzz(func(t *testing.T, journal, pack []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, journalName), journal, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(packPath(dir, 1), pack, 0o644); err != nil {
			t.Fatal(err)
		}
		verified, verifyErr := Verify(dir)
		s, err := Open(dir, 0)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		defer s.Close()
		if verifyErr == nil && s.Len() != verified {
			t.Fatalf("Verify counted %d records, Open kept %d", verified, s.Len())
		}
		for _, key := range s.Keys() {
			rec, body, ok := s.Get(key)
			if ok && !digestMatches(body, rec.Digest) {
				t.Fatalf("Get(%q) returned a body that is not its digest %q", key, rec.Digest)
			}
		}
	})
}

// BenchmarkStoreGet is the disk promotion's read: a durable 16 KiB
// record, one pread plus the digest check.
func BenchmarkStoreGet(b *testing.B) {
	s, err := Open(b.TempDir(), 0)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	const n, size = 64, 16 << 10
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("/get/%d", i)
		s.Put(Record{Key: keys[i], ValidatedAt: t0}, testBody(i, size))
	}
	s.Flush()
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, ok := s.Get(keys[i%n]); !ok {
			b.Fatal("miss on a durable record")
		}
	}
}

// BenchmarkStorePut writes a new 16 KiB body per op and waits until it
// is durable (appended and journaled). Each key alternates between two
// bodies, so no Put is deduplicated and reclaim runs at its steady-state
// rate.
func BenchmarkStorePut(b *testing.B) {
	s, err := Open(b.TempDir(), 0)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	const n, size = 64, 16 << 10
	keys := make([]string, n)
	bodies := make([][]byte, 2*n)
	for i := range keys {
		keys[i] = fmt.Sprintf("/put/%d", i)
	}
	for i := range bodies {
		bodies[i] = testBody(i, size)
	}
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Put(Record{Key: keys[i%n], ValidatedAt: t0}, bodies[i%(2*n)])
		s.Flush()
	}
}

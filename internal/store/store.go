// Package store is the persistent, content-addressed half of the cache
// hierarchy: a disk-backed key/value store that survives process restarts,
// layered *under* the in-memory caches (the batch memo cache of
// internal/batch and the trace/learner caches of internal/artifacts).
//
// Keys are content fingerprints — the same tuples that key the in-memory
// caches (platform, app, trace seed, scheduler, predictor configuration,
// trace/learner content hashes) — so a value can be trusted across restarts,
// deploys, and machines running the same code: equal key means equal bytes.
// The store is a cache, never the source of truth; deleting the directory is
// always safe and only costs recomputation.
//
// # On-disk format
//
// One append-only record log (store.log) inside the directory. The file
// opens with an 8-byte format header; each record is
//
//	[4]byte magic | uint32 keyLen | uint32 valLen | uint32 crc32(key‖val)
//	key bytes | value bytes
//
// with all integers little-endian. Every Put appends one record in a single
// write; a re-Put of an existing key appends a new record and the replay
// order makes the last one win.
//
// # Recovery
//
// Open replays the log and rebuilds the in-memory key → offset index. The
// log may have been torn by a crash mid-append or corrupted at rest, so
// replay is defensive:
//
//   - A record whose checksum fails but whose framing is intact is skipped
//     with a counted warning (Stats.CorruptRecords); later records are kept.
//   - A torn tail — a header or body extending past EOF, or a header whose
//     magic or lengths are garbage (framing can no longer be trusted) — ends
//     the replay; the tail is truncated away (Stats.TornBytes) so the log is
//     append-consistent again.
//   - Reads re-verify the checksum, so corruption landing after Open can
//     never surface as corrupt bytes: the entry turns into a miss instead.
//
// The store is safe for concurrent use by one process. Concurrent processes
// must not share a directory: each worker of a cluster keeps its own local
// store (routing affinity keeps them warm), which is what makes restart,
// deploy, and CI warm-starts cheap without any coordination protocol.
package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// LogName is the record log's file name inside the store directory.
const LogName = "store.log"

var (
	fileMagic = [8]byte{'P', 'E', 'S', 'L', 'O', 'G', '1', '\n'}
	recMagic  = uint32(0x50455352) // "PESR"
)

const (
	recHeaderSize = 16
	// maxKeyLen and maxValLen bound what a replayed header may claim; a
	// length beyond them means the framing itself is corrupt.
	maxKeyLen = 1 << 20
	maxValLen = 1 << 30
)

// File is the store's view of its log file: the subset of *os.File the
// record log uses. The indirection exists for fault injection — internal/chaos
// wraps a File to simulate short writes and crash-at-record-N without
// touching the OS — and for nothing else; production stores always run on a
// bare *os.File.
type File interface {
	ReadAt(p []byte, off int64) (int, error)
	WriteAt(p []byte, off int64) (int, error)
	Write(p []byte) (int, error)
	Truncate(size int64) error
	Sync() error
	Close() error
	Stat() (os.FileInfo, error)
}

// Option configures a Store at Open.
type Option func(*Store)

// WithFileWrapper interposes wrap between the store and its log file (fault
// injection; see File). The wrapper sees every read, write, truncate and
// sync the store issues, including the Open replay.
func WithFileWrapper(wrap func(File) File) Option {
	return func(s *Store) { s.wrapFile = wrap }
}

// WithSyncEvery makes the store fsync its log after every n Puts (n >= 1),
// plus wherever PutDurable is used (journal terminal-state records). The
// default (0) never syncs on Put: a process crash (kill -9) still loses
// nothing because the writes sit in the OS page cache, but a power loss or
// kernel panic can lose the un-synced tail — torn-tail recovery then resumes
// from the last synced record. Syncing costs one disk flush per n results
// (TestSyncEveryCadence pins the cadence).
func WithSyncEvery(n int) Option {
	return func(s *Store) {
		if n > 0 {
			s.syncEvery = int64(n)
		}
	}
}

// Stats snapshots a store's counters. The recovery fields are set by Open
// and constant afterwards; the rest accumulate over the store's lifetime.
type Stats struct {
	// Records is the number of distinct keys currently readable.
	Records int64 `json:"records" metric:"pes_store_log_records" help:"Distinct keys currently readable from the persistent log."`
	// Recovered is the number of intact records replayed at Open — non-zero
	// means this process warm-started from a previous one's work.
	Recovered int64 `json:"recovered" metric:"pes_store_log_recovered" help:"Intact records replayed when the log was opened."`
	// CorruptRecords counts records dropped for a checksum mismatch, at
	// replay or on a later read. Each drop is also logged as a warning.
	CorruptRecords int64 `json:"corrupt_records" metric:"pes_store_log_corrupt_records_total" help:"Records dropped for a checksum mismatch."`
	// TornBytes is the size of the unparseable log tail truncated at Open
	// (a crash mid-append, or corruption that broke the record framing).
	TornBytes int64 `json:"torn_bytes" metric:"pes_store_log_torn_bytes" help:"Unparseable log tail truncated at open, in bytes."`
	// Hits and Misses count Get/GetOrBuild lookups.
	Hits   int64 `json:"hits" metric:"pes_store_log_hits_total" help:"Persistent-log lookups that found a record."`
	Misses int64 `json:"misses" metric:"pes_store_log_misses_total" help:"Persistent-log lookups that missed."`
	// Puts counts records appended.
	Puts int64 `json:"puts" metric:"pes_store_log_puts_total" help:"Records appended to the persistent log."`
	// Syncs counts explicit log flushes to stable storage: the WithSyncEvery
	// cadence, PutDurable calls, and Sync/Close. Zero syncs on a no-fsync
	// store until Close.
	Syncs int64 `json:"syncs" metric:"pes_store_log_syncs_total" help:"Explicit log flushes to stable storage."`
	// SharedBuilds counts GetOrBuild callers that were served by another
	// caller's in-flight build instead of building or reading themselves.
	SharedBuilds int64 `json:"shared_builds" metric:"pes_store_log_shared_builds_total" help:"GetOrBuild callers served by another caller's in-flight build."`
}

// ref locates one live record's value inside the log.
type ref struct {
	key string
	off int64 // offset of the value bytes
	len uint32
	crc uint32 // crc32(key‖value), as framed
}

// call is an in-flight GetOrBuild: the first caller builds, everyone else
// blocks on done and shares the outcome.
type call struct {
	done chan struct{}
	val  []byte
	err  error
}

// Store is one disk-backed content-addressed store. All methods are safe
// for concurrent use within one process.
type Store struct {
	dir       string
	wrapFile  func(File) File
	syncEvery int64 // fsync after every n Puts; 0 = never on Put

	mu       sync.Mutex // guards index, inflight, appends, size, closed
	f        File
	size     int64 // current log size == next append offset
	index    map[string]ref
	inflight map[string]*call
	closed   bool

	recovered      int64
	tornBytes      int64
	corruptRecords atomic.Int64
	hits           atomic.Int64
	misses         atomic.Int64
	puts           atomic.Int64
	syncs          atomic.Int64
	sharedBuilds   atomic.Int64

	// warnf receives recovery/read warnings; tests may replace it before
	// the store is shared. Defaults to log.Printf.
	warnf func(format string, args ...any)
}

// Open creates or reopens the store in dir (created if missing), replaying
// the record log and recovering every intact record. A torn tail is
// truncated; checksum-corrupt records are skipped with a counted warning.
func Open(dir string, opts ...Option) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	path := filepath.Join(dir, LogName)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{
		dir:      dir,
		f:        f,
		index:    make(map[string]ref),
		inflight: make(map[string]*call),
		warnf:    log.Printf,
	}
	for _, opt := range opts {
		opt(s)
	}
	if s.wrapFile != nil {
		s.f = s.wrapFile(f)
	}
	if err := s.replay(); err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

// replay scans the log, rebuilds the index, and truncates any unparseable
// tail so the file is append-consistent again.
func (s *Store) replay() error {
	info, err := s.f.Stat()
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	size := info.Size()
	if size == 0 {
		if _, err := s.f.Write(fileMagic[:]); err != nil {
			return fmt.Errorf("store: writing log header: %w", err)
		}
		s.size = int64(len(fileMagic))
		return nil
	}
	var hdr [8]byte
	if size < int64(len(hdr)) {
		// Shorter than the format header: a crash before the header write
		// completed. Start the log over.
		return s.dropTail(0, size, "log shorter than its format header")
	}
	if _, err := s.f.ReadAt(hdr[:], 0); err != nil {
		return fmt.Errorf("store: reading log header: %w", err)
	}
	if hdr != fileMagic {
		// Refuse to touch a file that was never ours.
		return fmt.Errorf("store: %s is not a pes store log (bad format header)", filepath.Join(s.dir, LogName))
	}

	off := int64(len(fileMagic))
	var rec [recHeaderSize]byte
	for off < size {
		if size-off < recHeaderSize {
			return s.dropTail(off, size, "torn record header")
		}
		if _, err := s.f.ReadAt(rec[:], off); err != nil {
			return fmt.Errorf("store: replaying at offset %d: %w", off, err)
		}
		magic := binary.LittleEndian.Uint32(rec[0:4])
		keyLen := binary.LittleEndian.Uint32(rec[4:8])
		valLen := binary.LittleEndian.Uint32(rec[8:12])
		crc := binary.LittleEndian.Uint32(rec[12:16])
		if magic != recMagic || keyLen == 0 || keyLen > maxKeyLen || valLen > maxValLen {
			// The framing itself can no longer be trusted; everything from
			// here on is unreachable.
			return s.dropTail(off, size, "corrupt record framing")
		}
		body := int64(keyLen) + int64(valLen)
		if off+recHeaderSize+body > size {
			return s.dropTail(off, size, "torn record body")
		}
		buf := make([]byte, body)
		if _, err := s.f.ReadAt(buf, off+recHeaderSize); err != nil {
			return fmt.Errorf("store: replaying at offset %d: %w", off, err)
		}
		next := off + recHeaderSize + body
		if crc32.ChecksumIEEE(buf) != crc {
			// Framing intact, content rotten: skip this record only.
			s.corruptRecords.Add(1)
			s.warnf("store: dropping corrupt record at offset %d of %s (checksum mismatch)", off, filepath.Join(s.dir, LogName))
			off = next
			continue
		}
		key := string(buf[:keyLen])
		s.index[key] = ref{key: key, off: off + recHeaderSize + int64(keyLen), len: valLen, crc: crc}
		s.recovered++
		off = next
	}
	s.size = size
	return nil
}

// dropTail truncates the log at off, abandoning the bytes [off, size) that
// can no longer be parsed, and finishes the replay.
func (s *Store) dropTail(off, size int64, reason string) error {
	s.tornBytes = size - off
	s.warnf("store: truncating %d unparseable tail bytes of %s at offset %d (%s)", s.tornBytes, filepath.Join(s.dir, LogName), off, reason)
	if err := s.f.Truncate(off); err != nil {
		return fmt.Errorf("store: truncating torn tail: %w", err)
	}
	if off == 0 {
		if _, err := s.f.Write(fileMagic[:]); err != nil {
			return fmt.Errorf("store: rewriting log header: %w", err)
		}
		off = int64(len(fileMagic))
	}
	s.size = off
	return nil
}

// Dir returns the store directory.
func (s *Store) Dir() string { return s.dir }

// Len returns the number of distinct keys currently readable.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// Stats returns a snapshot of the counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	records := int64(len(s.index))
	s.mu.Unlock()
	return Stats{
		Records:        records,
		Recovered:      s.recovered,
		CorruptRecords: s.corruptRecords.Load(),
		TornBytes:      s.tornBytes,
		Hits:           s.hits.Load(),
		Misses:         s.misses.Load(),
		Puts:           s.puts.Load(),
		Syncs:          s.syncs.Load(),
		SharedBuilds:   s.sharedBuilds.Load(),
	}
}

// lookup returns the live ref for key, if any.
func (s *Store) lookup(key string) (ref, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.index[key]
	return r, ok
}

// read fetches and verifies one record's value. A checksum mismatch (the
// log was corrupted after Open) drops the entry and reports a miss — the
// store never returns bytes it cannot vouch for.
func (s *Store) read(r ref) ([]byte, bool) {
	buf := make([]byte, int(r.len)+len(r.key))
	copy(buf, r.key)
	if _, err := s.f.ReadAt(buf[len(r.key):], r.off); err != nil {
		s.warnf("store: reading record at offset %d: %v", r.off, err)
		s.drop(r)
		return nil, false
	}
	if crc32.ChecksumIEEE(buf) != r.crc {
		s.corruptRecords.Add(1)
		s.warnf("store: dropping corrupt record at offset %d of %s (checksum mismatch on read)", r.off, filepath.Join(s.dir, LogName))
		s.drop(r)
		return nil, false
	}
	return buf[len(r.key):], true
}

// drop removes a record from the index unless a newer Put replaced it.
func (s *Store) drop(r ref) {
	s.mu.Lock()
	if cur, ok := s.index[r.key]; ok && cur.off == r.off {
		delete(s.index, r.key)
	}
	s.mu.Unlock()
}

// Get returns the value stored for key, or ok=false when the key is absent
// (or its record failed verification). The returned slice is private to the
// caller.
func (s *Store) Get(key string) ([]byte, bool) {
	r, ok := s.lookup(key)
	if !ok {
		s.misses.Add(1)
		return nil, false
	}
	val, ok := s.read(r)
	if !ok {
		s.misses.Add(1)
		return nil, false
	}
	s.hits.Add(1)
	return val, true
}

// Put appends a record for key. A later Get returns the new value; the old
// record (if any) becomes dead weight in the log. When the store was opened
// with WithSyncEvery, every n-th Put also flushes the log to stable storage.
func (s *Store) Put(key string, val []byte) error {
	return s.put(key, val, false)
}

// PutDurable appends a record for key and flushes the log to stable storage
// before returning — the record survives power loss, not just a process
// crash. The journal uses it for terminal-state records so "campaign done"
// can never outlive the results it stands for. On a no-fsync store (no
// WithSyncEvery) it behaves like Put: durability is all-or-nothing per
// store, so a store that never syncs is not made to stall on one record.
func (s *Store) PutDurable(key string, val []byte) error {
	return s.put(key, val, s.syncEvery > 0)
}

func (s *Store) put(key string, val []byte, durable bool) error {
	if key == "" || len(key) > maxKeyLen {
		return fmt.Errorf("store: invalid key length %d", len(key))
	}
	if len(val) > maxValLen {
		return fmt.Errorf("store: value too large (%d bytes)", len(val))
	}
	buf := make([]byte, recHeaderSize+len(key)+len(val))
	binary.LittleEndian.PutUint32(buf[0:4], recMagic)
	binary.LittleEndian.PutUint32(buf[4:8], uint32(len(key)))
	binary.LittleEndian.PutUint32(buf[8:12], uint32(len(val)))
	copy(buf[recHeaderSize:], key)
	copy(buf[recHeaderSize+len(key):], val)
	crc := crc32.ChecksumIEEE(buf[recHeaderSize:])
	binary.LittleEndian.PutUint32(buf[12:16], crc)

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("store: store is closed")
	}
	// One write per record: a crash can only tear the log at a record
	// boundary mid-write, which recovery truncates away.
	if _, err := s.f.WriteAt(buf, s.size); err != nil {
		return fmt.Errorf("store: appending record: %w", err)
	}
	off := s.size
	s.size += int64(len(buf))
	s.index[key] = ref{key: key, off: off + recHeaderSize + int64(len(key)), len: uint32(len(val)), crc: crc}
	puts := s.puts.Add(1)
	if durable || (s.syncEvery > 0 && puts%s.syncEvery == 0) {
		if err := s.f.Sync(); err != nil {
			return fmt.Errorf("store: syncing log: %w", err)
		}
		s.syncs.Add(1)
	}
	return nil
}

// Keys returns the live keys starting with prefix, sorted. It is a replay
// aid (the campaign journal scans its record kinds at startup), not a fast
// path: the scan holds the store lock for the duration.
func (s *Store) Keys(prefix string) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var keys []string
	for k := range s.index {
		if strings.HasPrefix(k, prefix) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

// GetOrBuild returns the stored value for key, building and storing it on a
// miss. Concurrent callers for the same key share one build (store-level
// singleflight): exactly one executes build, everyone else blocks and
// receives the same bytes. hit is false only for the caller that executed
// build. A build error is returned to every waiting caller and nothing is
// stored; a later call retries.
func (s *Store) GetOrBuild(key string, build func() ([]byte, error)) (val []byte, hit bool, err error) {
	for {
		r, ok := s.lookup(key)
		if ok {
			if v, ok := s.read(r); ok {
				s.hits.Add(1)
				return v, true, nil
			}
		}
		s.mu.Lock()
		// Re-check under the lock: a Put or a finishing build may have
		// landed between the lookup and here.
		if r, ok := s.index[key]; ok {
			s.mu.Unlock()
			if v, ok := s.read(r); ok {
				s.hits.Add(1)
				return v, true, nil
			}
			continue
		}
		if c, ok := s.inflight[key]; ok {
			s.mu.Unlock()
			<-c.done
			if c.err != nil {
				return nil, false, c.err
			}
			s.sharedBuilds.Add(1)
			return c.val, true, nil
		}
		c := &call{done: make(chan struct{})}
		s.inflight[key] = c
		s.mu.Unlock()

		s.misses.Add(1)
		c.val, c.err = build()
		if c.err == nil {
			if putErr := s.Put(key, c.val); putErr != nil {
				// The value is still good; persistence just failed. Warn and
				// serve it — the store is a cache, not the source of truth.
				s.warnf("store: persisting %q: %v", key, putErr)
			}
		}
		s.mu.Lock()
		delete(s.inflight, key)
		s.mu.Unlock()
		close(c.done)
		return c.val, false, c.err
	}
}

// Sync flushes the log to stable storage (survives an OS crash, not just a
// process exit; Put alone already survives the latter).
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("store: store is closed")
	}
	if err := s.f.Sync(); err != nil {
		return err
	}
	s.syncs.Add(1)
	return nil
}

// Close syncs and closes the log. Further Puts fail; the struct must not be
// used concurrently with Close.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	syncErr := s.f.Sync()
	if syncErr == nil {
		s.syncs.Add(1)
	}
	closeErr := s.f.Close()
	if syncErr != nil {
		return syncErr
	}
	return closeErr
}

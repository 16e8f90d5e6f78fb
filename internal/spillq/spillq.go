// Package spillq is a segmented, disk-backed event queue: the cold
// store behind the runtime's OverloadSpill policy. When a color's
// in-memory queue hits its bound, the color's tail moves here — new
// events append to mmap-backed, append-only segment files under a
// runtime-owned directory — and reloads pull them back strictly in
// FIFO order once the color drains below its low-water mark.
//
// The design follows the timeq family of disk-backed queues (segmented
// buckets, mmap batch access, configurable durability) scaled to the
// runtime's needs:
//
//   - one chain of segment files per color, oldest first; only the
//     tail segment is mapped for appending, and appends are memcpys
//     into the shared mapping (no write syscalls on the hot path);
//   - segments carry a versioned 32-byte header (magic, format
//     version, color, sequence, consumed offset) and every record a
//     CRC32, so a segment is self-describing and recoverable — the
//     exact byte layout is specified in docs/spillq-format.md;
//   - a SyncPolicy decides when appended bytes reach stable storage:
//     SyncNone syncs only at segment seal, SyncInterval additionally
//     msyncs the open tail at most once per Options.SyncEvery, and
//     SyncAlways msyncs after every append batch (an msync failure
//     under SyncAlways rolls the batch back, so an error return means
//     the records never landed);
//   - sequential batch reload: records decode straight out of the
//     mapping in file order; a fully consumed segment is removed
//     whole, and the header's consumed offset advances so a recovered
//     store does not replay records that were already reloaded
//     (bounded by the sync window — recovery is at-least-once);
//   - Open either deletes crash orphans (Recover off — spilled events
//     are queue state, v1 behavior) or recovers them (Recover on):
//     surviving segments are scanned record-by-record, torn tails are
//     truncated at the last CRC-valid record, and the intact backlog
//     is reported through Options.OnRecover so the layer above can
//     reload it into the owning color's FIFO.
//
// The record format is a compact binary encoding of the scheduling
// fields of an equeue.Event plus an opaque tagged payload; the policy
// layer above owns payload encoding. spillq itself has no opinion on
// what is spilled or when — it is a FIFO of records per 64-bit color.
//
// Store is safe for concurrent use; operations on distinct colors
// proceed in parallel (per-color locking below a short map lock).
package spillq

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Record is one spilled event: the scheduling header the runtime needs
// to rebuild an equeue.Event, plus an opaque tagged payload.
type Record struct {
	Handler int32
	Color   uint64
	Cost    int64
	Penalty int32
	// Tag classifies Payload for the layer that encoded it; spillq
	// stores both verbatim.
	Tag     uint8
	Payload []byte
	// TraceID/SpanID/ParentSpan carry the event's causal identifiers
	// across the disk round-trip so a spilled hop stays inside its
	// trace (all zero with tracing off). Stored verbatim.
	TraceID    uint64
	SpanID     uint64
	ParentSpan uint64
}

// On-disk layout, format version 3 (docs/spillq-format.md is the
// normative spec; the golden-segment test cross-checks these numbers
// against the doc's byte tables). Version 3 widens the record header
// with the three causal-trace identifiers; v2 segments fail the
// header version check and are treated as unrecoverable.
const (
	// segHeaderBytes is the segment header: magic "MSPQ" (4), format
	// version (u16), flags (u16), color (u64), segment sequence (u64),
	// consumed byte offset (u32, the only mutable field), header CRC32
	// over bytes [0,24) (u32).
	segHeaderBytes = 4 + 2 + 2 + 8 + 8 + 4 + 4

	// recHeaderBytes is the fixed prefix of every record: CRC32 over
	// the rest of the header plus the payload (u32), payload length
	// (u32), handler (i32), color (u64), cost (i64), penalty (i32),
	// tag (u8), trace id (u64), span id (u64), parent span (u64).
	recHeaderBytes = 4 + 4 + 4 + 8 + 8 + 4 + 1 + 8 + 8 + 8

	formatVersion = 3
	magic         = "MSPQ"

	// maxPayload bounds the payload-length field during recovery: a
	// larger value in a record header is corruption, not a record.
	maxPayload = 1 << 30

	// growChunk is the granularity of tail-file growth past the
	// preallocated SegmentBytes (oversized payloads only): each grow
	// is a Truncate plus remap, so it is deliberately coarse.
	growChunk = 64 << 10
)

// SyncPolicy selects when appended records reach stable storage.
type SyncPolicy int

const (
	// SyncNone syncs only when a segment seals (fills and closes): a
	// crash can lose the open tail of every spilling color, up to
	// ~SegmentBytes each.
	SyncNone SyncPolicy = iota
	// SyncInterval additionally msyncs the open tail at most once per
	// Options.SyncEvery, bounding loss on crash to the records
	// appended inside one interval.
	SyncInterval
	// SyncAlways msyncs after every append batch before it returns:
	// an appended record survives any crash, and an msync failure
	// rolls the batch back so an Append error means the records never
	// landed.
	SyncAlways
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncNone:
		return "none"
	case SyncInterval:
		return "interval"
	case SyncAlways:
		return "always"
	default:
		return fmt.Sprintf("SyncPolicy(%d)", int(p))
	}
}

// Options configures a Store.
type Options struct {
	// SegmentBytes is the roll threshold of the append-only segment
	// files (default 256 KiB). A segment whose logical size reaches it
	// is sealed (synced, truncated to its logical end, unmapped) and a
	// fresh tail segment is started; reloads consume and delete whole
	// segments, so this is also the granularity at which disk space is
	// returned. The open tail is preallocated to this size so appends
	// never grow the file.
	SegmentBytes int

	// Sync is the durability policy (default SyncNone).
	Sync SyncPolicy

	// SyncEvery is the SyncInterval period (default 100ms). Ignored by
	// the other policies.
	SyncEvery time.Duration

	// Recover switches Open from delete-orphans to recovery: *.seg
	// files left by a previous process are scanned, torn tails are
	// truncated at the last valid record, and surviving records are
	// reported through OnRecover. It also makes Close durable: open
	// tails are sealed and segment files are kept for the next Open.
	Recover bool

	// OnRecover, when non-nil, is called once per recovered record
	// during Open (in per-color FIFO order), with the scheduling
	// header filled in and Payload nil — payloads stay on disk until
	// the record is reloaded. The store is not yet usable inside the
	// callback.
	OnRecover func(Record)
}

// DefaultSegmentBytes is the segment roll threshold when Options
// leaves it zero.
const DefaultSegmentBytes = 256 << 10

// DefaultSyncEvery is the SyncInterval period when Options leaves it
// zero.
const DefaultSyncEvery = 100 * time.Millisecond

// ErrClosed is returned by operations on a closed Store.
var ErrClosed = errors.New("spillq: store closed")

// segment is one append-only file of a color's chain.
type segment struct {
	path string
	seq  uint64

	// m is non-nil while the segment is mapped: always for the open
	// tail, and lazily for a sealed segment being reloaded (mapped on
	// first Reload touch, unmapped when consumed or at Close).
	m      *mapping
	sealed bool

	size  int64 // logical end offset: header + records (file may be longer while open)
	count int   // records written
	read  int   // records consumed this process
	off   int64 // byte offset of the next unread record (>= segHeaderBytes)

	// durSize/durCount are the durable prefix: what the sync policy
	// has confirmed landed. Under SyncAlways a failed msync rolls the
	// segment (and the chain's accounting) back to exactly this point
	// and zeroes the rolled-back bytes, so the in-memory depth never
	// claims records that would not survive a crash — and recovery
	// never resurrects records whose Append reported failure. Under
	// the other policies the write itself is the landing point.
	durSize  int64
	durCount int

	dirty    bool      // bytes appended since the last sync
	lastSync time.Time // SyncInterval bookkeeping
}

// chain is the per-color segment list, oldest first.
type chain struct {
	mu      sync.Mutex
	segs    []*segment
	nextSeq uint64
	depth   int // unconsumed records across all segments
}

// Store is a directory of per-color segment chains.
type Store struct {
	dir  string
	opts Options

	mu     sync.Mutex
	colors map[uint64]*chain
	closed bool

	total    atomic.Int64 // unconsumed records, store-wide (stats gauge)
	syncs    atomic.Int64 // msync/fsync durability points issued
	appended atomic.Int64 // bytes appended (headers + payloads), this process

	// Recovery results, written once by Open before the Store is
	// published (read-only afterwards).
	recovered     int64 // records recovered from surviving segments
	torn          int64 // torn tails truncated (or whole segments discarded)
	recoveredRecs []recoveredSeg
}

// Open prepares dir as a spill store. Without Options.Recover any
// *.seg files a crashed process left behind are deleted (crash-orphan
// cleanup — spilled events are queue state); with it they are scanned,
// repaired, and reported through Options.OnRecover. One Store must own
// a directory exclusively.
func Open(dir string, opts Options) (*Store, error) {
	if dir == "" {
		return nil, errors.New("spillq: empty directory")
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if opts.SyncEvery <= 0 {
		opts.SyncEvery = DefaultSyncEvery
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("spillq: %w", err)
	}
	s := &Store{dir: dir, opts: opts, colors: make(map[uint64]*chain)}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("spillq: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".seg") {
			continue
		}
		if !opts.Recover {
			if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
				return nil, fmt.Errorf("spillq: orphan cleanup: %w", err)
			}
			continue
		}
		if err := s.recoverSegment(filepath.Join(dir, e.Name()), e.Name()); err != nil {
			return nil, err
		}
	}
	if opts.Recover {
		s.finishRecovery()
	}
	return s, nil
}

// recoverSegment scans one surviving segment file: header validated,
// records CRC-checked from the consumed offset, torn tail truncated.
// Unusable files (bad header, foreign name, nothing unconsumed) are
// removed; I/O errors abort the Open.
func (s *Store) recoverSegment(path, name string) error {
	color, seq, ok := parseSegName(name)
	if !ok {
		// Not a name this store writes: leave it alone (the recover
		// contract only covers segments, and deleting unknown files
		// from a user-supplied directory is how backups die).
		return nil
	}
	m, err := openMapping(path, 0, false)
	if err != nil {
		return fmt.Errorf("spillq: recover %s: %w", name, err)
	}
	st, err := os.Stat(path)
	if err != nil {
		m.close()
		return fmt.Errorf("spillq: recover %s: %w", name, err)
	}
	size := st.Size()
	consumed, ok := checkSegHeader(m, size, color)
	if !ok {
		// Unparseable header: nothing in the file is trustworthy.
		m.close()
		s.torn++
		if err := os.Remove(path); err != nil {
			return fmt.Errorf("spillq: recover %s: %w", name, err)
		}
		return nil
	}

	// Scan records from the consumed offset to the first invalid one.
	var recs []Record
	off := consumed
	torn := false
	for off < size {
		rec, n, valid := checkRecord(m, off, size)
		if !valid {
			// A zero suffix is preallocation slack (a clean tail); any
			// other invalid bytes are a torn write.
			torn = !isZero(m.slice(off, size-off))
			break
		}
		rec.Payload = nil // headers only; payloads stay on disk
		recs = append(recs, rec)
		off += n
	}
	m.close()
	if torn {
		s.torn++
	}
	if len(recs) == 0 {
		if err := os.Remove(path); err != nil {
			return fmt.Errorf("spillq: recover %s: %w", name, err)
		}
		return nil
	}
	if off != size {
		// Trim the tail (torn bytes or preallocation slack) so the
		// file ends exactly at its last valid record.
		if err := os.Truncate(path, off); err != nil {
			return fmt.Errorf("spillq: recover %s: %w", name, err)
		}
	}

	seg := &segment{
		path: path, seq: seq, sealed: true,
		size: off, count: len(recs), off: consumed,
		durSize: off, durCount: len(recs),
	}
	c := s.colors[color]
	if c == nil {
		c = &chain{}
		s.colors[color] = c
	}
	c.segs = append(c.segs, seg)
	c.depth += len(recs)
	if seq >= c.nextSeq {
		c.nextSeq = seq + 1
	}
	s.total.Add(int64(len(recs)))
	s.recovered += int64(len(recs))
	s.recoveredRecs = append(s.recoveredRecs, recoveredSeg{color: color, seq: seq, recs: recs})
	return nil
}

// parseSegName decodes a c<color:%016x>-<seq:%06d>.seg filename.
func parseSegName(name string) (color, seq uint64, ok bool) {
	base, found := strings.CutSuffix(name, ".seg")
	if !found || len(base) < 1+16+1+1 || base[0] != 'c' || base[17] != '-' {
		return 0, 0, false
	}
	color, err := strconv.ParseUint(base[1:17], 16, 64)
	if err != nil {
		return 0, 0, false
	}
	seq, err = strconv.ParseUint(base[18:], 10, 64)
	if err != nil {
		return 0, 0, false
	}
	return color, seq, true
}

// recoveredSeg holds one recovered segment's record headers until
// finishRecovery orders them for the OnRecover callback.
type recoveredSeg struct {
	color uint64
	seq   uint64
	recs  []Record
}

// finishRecovery orders each color's segments by sequence (directory
// iteration order is arbitrary) and replays the recovered record
// headers through OnRecover in per-color FIFO order.
func (s *Store) finishRecovery() {
	for _, c := range s.colors {
		sort.Slice(c.segs, func(i, j int) bool { return c.segs[i].seq < c.segs[j].seq })
	}
	if s.opts.OnRecover != nil {
		sort.SliceStable(s.recoveredRecs, func(i, j int) bool {
			a, b := &s.recoveredRecs[i], &s.recoveredRecs[j]
			if a.color != b.color {
				return a.color < b.color
			}
			return a.seq < b.seq
		})
		for i := range s.recoveredRecs {
			for _, r := range s.recoveredRecs[i].recs {
				s.opts.OnRecover(r)
			}
		}
	}
	s.recoveredRecs = nil
}

// checkSegHeader validates a segment header against the format spec
// and the color the filename claims, returning the consumed offset
// (clamped into the file) and whether the header is usable.
func checkSegHeader(m *mapping, size int64, color uint64) (int64, bool) {
	if size < segHeaderBytes {
		return 0, false
	}
	h := m.slice(0, segHeaderBytes)
	if string(h[0:4]) != magic {
		return 0, false
	}
	if binary.LittleEndian.Uint16(h[4:]) != formatVersion {
		return 0, false
	}
	if binary.LittleEndian.Uint64(h[8:]) != color {
		return 0, false
	}
	if binary.LittleEndian.Uint32(h[28:]) != crc32.ChecksumIEEE(h[0:24]) {
		return 0, false
	}
	consumed := int64(binary.LittleEndian.Uint32(h[24:]))
	if consumed < segHeaderBytes || consumed > size {
		// The consumed offset sits outside the header CRC (it mutates
		// on every reload); a torn value only costs duplicate
		// delivery, never loss — restart the scan from the first
		// record.
		consumed = segHeaderBytes
	}
	return consumed, true
}

// checkRecord decodes and CRC-verifies the record at off, returning
// the record (payload not loaded), its full on-disk length, and
// validity.
func checkRecord(m *mapping, off, size int64) (Record, int64, bool) {
	if off+recHeaderBytes > size {
		return Record{}, 0, false
	}
	h := m.slice(off, recHeaderBytes)
	plen := int64(binary.LittleEndian.Uint32(h[4:]))
	if plen > maxPayload || off+recHeaderBytes+plen > size {
		return Record{}, 0, false
	}
	rec := Record{
		Handler:    int32(binary.LittleEndian.Uint32(h[8:])),
		Color:      binary.LittleEndian.Uint64(h[12:]),
		Cost:       int64(binary.LittleEndian.Uint64(h[20:])),
		Penalty:    int32(binary.LittleEndian.Uint32(h[28:])),
		Tag:        h[32],
		TraceID:    binary.LittleEndian.Uint64(h[33:]),
		SpanID:     binary.LittleEndian.Uint64(h[41:]),
		ParentSpan: binary.LittleEndian.Uint64(h[49:]),
	}
	want := binary.LittleEndian.Uint32(h[0:])
	crc := crc32.ChecksumIEEE(m.slice(off+4, recHeaderBytes-4))
	if plen > 0 {
		crc = crc32.Update(crc, crc32.IEEETable, m.slice(off+recHeaderBytes, plen))
	}
	if crc != want {
		return Record{}, 0, false
	}
	return rec, recHeaderBytes + plen, true
}

func isZero(b []byte) bool {
	for _, v := range b {
		if v != 0 {
			return false
		}
	}
	return true
}

// Dir reports the store's directory.
func (s *Store) Dir() string { return s.dir }

// Syncs reports the msync/fsync durability points issued so far.
func (s *Store) Syncs() int64 { return s.syncs.Load() }

// AppendedBytes reports the bytes this process has appended (record
// headers plus payloads) — a monotonic counter the observability layer
// differences into a spill-bandwidth rate. Recovery replay does not
// count: those bytes were written by a previous process.
func (s *Store) AppendedBytes() int64 { return s.appended.Load() }

// Recovered reports the records recovered from surviving segments at
// Open (zero without Options.Recover).
func (s *Store) Recovered() int64 { return s.recovered }

// Torn reports the torn tails truncated (or unusable segments
// discarded) during recovery at Open.
func (s *Store) Torn() int64 { return s.torn }

// chainOf returns (creating if asked) the chain of a color.
func (s *Store) chainOf(color uint64, create bool) (*chain, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	c := s.colors[color]
	if c == nil && create {
		c = &chain{}
		s.colors[color] = c
	}
	return c, nil
}

// Append encodes recs onto the tail of color's chain: each record is
// CRC-stamped and memcpy'd into the tail mapping, segments roll at the
// byte budget, and the configured SyncPolicy decides whether the batch
// is msync'd before returning. The records become visible to Reload in
// order, after any records already stored.
//
// On error, accounting reflects exactly the records that durably
// landed: records after the last durability point are rolled back and
// their bytes zeroed (they will not resurface at recovery), so the
// caller can safely fall back to keeping them in memory.
func (s *Store) Append(color uint64, recs []Record) error {
	if len(recs) == 0 {
		return nil
	}
	c, err := s.chainOf(color, true)
	if err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var hdr [recHeaderBytes]byte
	// recs[pendingStart:] are the records not yet covered by a
	// durability point; an error rolls exactly those back.
	pendingStart := 0
	for i := range recs {
		rec := &recs[i]
		tail, err := s.tailSegment(color, c)
		if err != nil {
			return s.rollbackTail(c, c.openTail(), i-pendingStart, err)
		}
		need := int64(recHeaderBytes + len(rec.Payload))
		if tail.size+need > tail.m.size {
			grown := (tail.size + need + growChunk - 1) / growChunk * growChunk
			if err := tail.m.grow(grown); err != nil {
				return s.rollbackTail(c, tail, i-pendingStart, fmt.Errorf("spillq: %w", err))
			}
		}
		binary.LittleEndian.PutUint32(hdr[4:], uint32(len(rec.Payload)))
		binary.LittleEndian.PutUint32(hdr[8:], uint32(rec.Handler))
		binary.LittleEndian.PutUint64(hdr[12:], rec.Color)
		binary.LittleEndian.PutUint64(hdr[20:], uint64(rec.Cost))
		binary.LittleEndian.PutUint32(hdr[28:], uint32(rec.Penalty))
		hdr[32] = rec.Tag
		binary.LittleEndian.PutUint64(hdr[33:], rec.TraceID)
		binary.LittleEndian.PutUint64(hdr[41:], rec.SpanID)
		binary.LittleEndian.PutUint64(hdr[49:], rec.ParentSpan)
		crc := crc32.ChecksumIEEE(hdr[4:])
		crc = crc32.Update(crc, crc32.IEEETable, rec.Payload)
		binary.LittleEndian.PutUint32(hdr[0:], crc)
		tail.m.writeAt(hdr[:], tail.size)
		if len(rec.Payload) > 0 {
			tail.m.writeAt(rec.Payload, tail.size+recHeaderBytes)
		}
		tail.size += need
		tail.count++
		tail.dirty = true
		c.depth++
		s.total.Add(1)
		s.appended.Add(need)
		if s.opts.Sync != SyncAlways {
			// The memcpy is the landing point: there is no later
			// failure that could un-land these bytes.
			tail.durSize, tail.durCount = tail.size, tail.count
			pendingStart = i + 1
		}
		if tail.size >= int64(s.opts.SegmentBytes) {
			if err := s.sealSegment(tail); err != nil {
				return s.rollbackTail(c, tail, i+1-pendingStart, err)
			}
			pendingStart = i + 1
		}
	}
	if tail := c.openTail(); tail != nil && tail.dirty {
		switch s.opts.Sync {
		case SyncAlways:
			if err := s.syncSegment(tail); err != nil {
				return s.rollbackTail(c, tail, len(recs)-pendingStart, err)
			}
		case SyncInterval:
			if now := time.Now(); now.Sub(tail.lastSync) >= s.opts.SyncEvery {
				// Best effort: the records are already landed (page
				// cache); a failing msync here means the disk is sick
				// and the next seal will surface it as an error.
				_ = s.syncSegment(tail)
			}
		}
	}
	return nil
}

// openTail returns the chain's open (unsealed) tail segment, nil when
// the chain is empty or its last segment is sealed.
func (c *chain) openTail() *segment {
	if n := len(c.segs); n > 0 && !c.segs[n-1].sealed {
		return c.segs[n-1]
	}
	return nil
}

// rollbackTail undoes the accounting and on-disk bytes for the lost
// records a failed durability point left unconfirmed, restoring the
// segment to its durable prefix. The rolled-back range is zeroed so
// recovery sees a clean tail, never the phantom records. The chain
// stays usable: durable records keep serving, the next append writes
// from the durable offset.
func (s *Store) rollbackTail(c *chain, tail *segment, lost int, cause error) error {
	c.depth -= lost
	s.total.Add(int64(-lost))
	if tail != nil && tail.size > tail.durSize {
		tail.m.zeroRange(tail.durSize, tail.size-tail.durSize)
		tail.size, tail.count = tail.durSize, tail.durCount
	}
	return fmt.Errorf("spillq: %w", cause)
}

// tailSegment returns the open tail segment, creating (and
// preallocating) one when the chain is empty or its tail is sealed.
func (s *Store) tailSegment(color uint64, c *chain) (*segment, error) {
	if tail := c.openTail(); tail != nil {
		return tail, nil
	}
	seq := c.nextSeq
	path := filepath.Join(s.dir, fmt.Sprintf("c%016x-%06d.seg", color, seq))
	c.nextSeq++
	m, err := openMapping(path, int64(s.opts.SegmentBytes), true)
	if err != nil {
		return nil, fmt.Errorf("spillq: %w", err)
	}
	var h [segHeaderBytes]byte
	copy(h[0:4], magic)
	binary.LittleEndian.PutUint16(h[4:], formatVersion)
	binary.LittleEndian.PutUint16(h[6:], 0) // flags: none defined in v2
	binary.LittleEndian.PutUint64(h[8:], color)
	binary.LittleEndian.PutUint64(h[16:], seq)
	binary.LittleEndian.PutUint32(h[24:], segHeaderBytes) // consumed
	binary.LittleEndian.PutUint32(h[28:], crc32.ChecksumIEEE(h[0:24]))
	m.writeAt(h[:], 0)
	seg := &segment{
		path: path, seq: seq, m: m,
		size: segHeaderBytes, off: segHeaderBytes,
		durSize: segHeaderBytes, lastSync: time.Now(),
	}
	c.segs = append(c.segs, seg)
	return seg, nil
}

// syncSegment msyncs a mapped segment and advances its durable prefix.
func (s *Store) syncSegment(seg *segment) error {
	if err := seg.m.sync(); err != nil {
		return fmt.Errorf("spillq: %w", err)
	}
	s.syncs.Add(1)
	seg.durSize, seg.durCount = seg.size, seg.count
	seg.dirty = false
	seg.lastSync = time.Now()
	return nil
}

// sealSegment makes a full tail segment durable and read-only: msync,
// truncate the preallocation slack off the file, fsync the new length,
// unmap. Reloads remap it lazily. Sealing syncs under every policy —
// it is the once-per-SegmentBytes durability point that makes
// SyncNone's loss window "the open tail", not "everything".
func (s *Store) sealSegment(seg *segment) error {
	if err := seg.m.sync(); err != nil {
		return fmt.Errorf("spillq: %w", err)
	}
	s.syncs.Add(1)
	seg.durSize, seg.durCount = seg.size, seg.count
	seg.dirty = false
	// Shrink to the logical end and persist the length; the mapping is
	// closed immediately after, so the now-past-EOF pages are never
	// touched again.
	if err := seg.m.truncate(seg.size); err != nil {
		seg.m.close()
		seg.m = nil
		seg.sealed = true
		return fmt.Errorf("spillq: %w", err)
	}
	if err := seg.m.syncFile(); err != nil {
		seg.m.close()
		seg.m = nil
		seg.sealed = true
		return fmt.Errorf("spillq: %w", err)
	}
	seg.m.close()
	seg.m = nil
	seg.sealed = true
	return nil
}

// Reload pops up to max records of color from the head of its chain,
// appending them to dst (use dst[:0] to reuse a buffer). Records come
// back in append order; a segment whose records are all consumed is
// deleted from disk (whole-segment reclaim), and the surviving head's
// consumed offset advances in its header so recovery resumes where
// reloads left off. A nil error with an empty result means the color
// has nothing on disk.
func (s *Store) Reload(color uint64, max int, dst []Record) ([]Record, error) {
	if max <= 0 {
		return dst, nil
	}
	c, err := s.chainOf(color, false)
	if err != nil {
		return dst, err
	}
	if c == nil {
		return dst, nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for max > 0 && len(c.segs) > 0 {
		head := c.segs[0]
		if head.read == head.count {
			// Only reachable for an open tail whose batch was rolled
			// back, leaving it empty; drop it like a consumed one.
			if err := removeSegment(c, head); err != nil {
				return dst, err
			}
			continue
		}
		if head.m == nil {
			// Sealed segment: map it for the duration of its
			// consumption (unmapped again when removed or at Close).
			m, err := openMapping(head.path, 0, false)
			if err != nil {
				return dst, fmt.Errorf("spillq: %w", err)
			}
			head.m = m
		}
		take := head.count - head.read
		if take > max {
			take = max
		}
		dst, err = readRecords(head, take, dst)
		if err != nil {
			return dst, err
		}
		c.depth -= take
		s.total.Add(int64(-take))
		max -= take
		if head.read < head.count {
			s.markConsumed(head)
			continue // max exhausted; loop exits
		}
		if head.sealed {
			// Sealed and fully consumed: remove the whole file.
			if err := removeSegment(c, head); err != nil {
				return dst, err
			}
		} else {
			// The open tail was fully consumed: reset it in place so
			// the file does not grow forever while the color
			// oscillates around its bound. The consumed region is
			// zeroed so a crash recovery sees an empty segment, not
			// the already-delivered records.
			head.m.zeroRange(segHeaderBytes, head.size-segHeaderBytes)
			var buf [4]byte
			binary.LittleEndian.PutUint32(buf[:], segHeaderBytes)
			head.m.writeAt(buf[:], 24)
			head.size, head.count, head.read, head.off = segHeaderBytes, 0, 0, segHeaderBytes
			head.durSize, head.durCount = segHeaderBytes, 0
			head.dirty = false
		}
	}
	return dst, nil
}

// markConsumed advances the header's consumed offset to the head's
// read cursor (msync'd under SyncAlways, so a recovered store replays
// at most the records reloaded since the last sync).
func (s *Store) markConsumed(head *segment) {
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], uint32(head.off))
	head.m.writeAt(buf[:], 24)
	if s.opts.Sync == SyncAlways {
		if err := head.m.sync(); err == nil {
			s.syncs.Add(1)
		}
	}
}

// readRecords decodes up to take records out of seg's mapping starting
// at its read cursor, verifying each record's CRC, appending to dst
// and advancing the cursor. Payload bytes are copied out of the
// mapping (records outlive it).
func readRecords(seg *segment, take int, dst []Record) ([]Record, error) {
	off := seg.off
	for i := 0; i < take; i++ {
		rec, n, valid := checkRecord(seg.m, off, seg.size)
		if !valid {
			return dst, fmt.Errorf("spillq: segment %s corrupt at offset %d", seg.path, off)
		}
		if plen := n - recHeaderBytes; plen > 0 {
			rec.Payload = make([]byte, plen)
			copy(rec.Payload, seg.m.slice(off+recHeaderBytes, plen))
		}
		off += n
		dst = append(dst, rec)
		seg.read++
	}
	seg.off = off
	return dst, nil
}

// removeSegment deletes the chain's head segment file.
func removeSegment(c *chain, head *segment) error {
	if head.m != nil {
		head.m.close()
		head.m = nil
	}
	if err := os.Remove(head.path); err != nil {
		return fmt.Errorf("spillq: %w", err)
	}
	c.segs = c.segs[1:]
	return nil
}

// Depth reports the unconsumed records of one color.
func (s *Store) Depth(color uint64) int {
	s.mu.Lock()
	c := s.colors[color]
	s.mu.Unlock()
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.depth
}

// TotalDepth reports the unconsumed records across every color.
func (s *Store) TotalDepth() int64 { return s.total.Load() }

// Close shuts the store down. Without Options.Recover it deletes every
// segment file and removes the directory when that leaves it empty
// (spilled events are queue state, v1 behavior). With Recover it is
// durable: open tails are sealed (synced, trimmed, fsync'd), consumed
// offsets are persisted, fully consumed files are reclaimed, and the
// surviving segments stay on disk for the next recovering Open.
// Idempotent.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	colors := s.colors
	s.colors = nil
	s.mu.Unlock()

	var first error
	keep := false
	for _, c := range colors {
		c.mu.Lock()
		for _, seg := range c.segs {
			if err := s.closeSegment(seg, &keep); err != nil && first == nil {
				first = err
			}
		}
		c.segs = nil
		c.mu.Unlock()
	}
	s.total.Store(0)
	if !keep {
		// Best effort: leaves the directory in place when the caller
		// keeps other files there.
		_ = os.Remove(s.dir)
	}
	return first
}

// closeSegment finishes one segment at Close per the Recover contract;
// keep is set when a file survives on disk.
func (s *Store) closeSegment(seg *segment, keep *bool) error {
	if !s.opts.Recover {
		if seg.m != nil {
			seg.m.close()
			seg.m = nil
		}
		return os.Remove(seg.path)
	}
	if seg.read == seg.count {
		// Nothing unconsumed: reclaim the file.
		if seg.m != nil {
			seg.m.close()
			seg.m = nil
		}
		return os.Remove(seg.path)
	}
	if seg.m == nil {
		// Sealed, untouched since seal (or recovery): already durable.
		*keep = true
		return nil
	}
	*keep = true
	if !seg.sealed {
		return s.sealSegment(seg)
	}
	// Sealed but mapped for reloading: persist the consumed offset.
	err := seg.m.sync()
	if err == nil {
		s.syncs.Add(1)
	}
	seg.m.close()
	seg.m = nil
	return err
}

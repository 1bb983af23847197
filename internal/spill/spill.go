// Package spill implements the disk tier of the execution core:
// temp-file partition writers/readers that let hash joins and D(G)
// distinct/subsumption state degrade gracefully to disk when their
// in-memory budget (budget.Budget.MaxBytes) is exceeded, instead of
// aborting the computation.
//
// Tuples are written in length-framed, CRC-checked frames (the same
// framing discipline as the session journal): a frame is
//
//	[uint32 payload len][uint32 crc32(payload)][payload]
//
// and the payload is one tuple encoded value-by-value with a kind tag
// byte and a self-delimiting body, mirroring value.Key's framing so no
// byte sequence can be misparsed across value boundaries. Partition
// routing reuses the canonical 64-bit tuple hashes (Tuple.Hash64 /
// HashOn): Equal tuples — including cross-kind numeric equality —
// always land in the same partition, which is what makes per-partition
// dedup and per-partition joins globally exact.
//
// Every I/O path carries an internal/fault injection point
// (spill.create, spill.write, spill.read) and every failure surfaces
// as a typed *IOError matching ErrSpill, so a mid-spill fault degrades
// to a typed abort — never a truncated or wrong relation. Files are
// created with os.CreateTemp under the budget's spill directory and
// removed on Close; SweepDir reclaims orphans left by a crash.
package spill

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"

	"clio/internal/budget"
	"clio/internal/fault"
	"clio/internal/obs"
	"clio/internal/relation"
	"clio/internal/value"
)

// DefaultPartitions is the Grace-hash fan-out: enough that one
// partition of a build side several times MaxBytes fits back in
// memory, few enough that partition files stay comfortably buffered.
const DefaultPartitions = 16

// filePattern names spill partition files; SweepDir matches it.
const filePattern = "clio-spill-*.part"

// Spill-tier instrumentation (clio_spill_* in /metrics).
var (
	cPartitions = obs.GetCounter("spill.partitions")
	cBytes      = obs.GetCounter("spill.bytes")
	cAborts     = obs.GetCounter("spill.spill_aborts")
	cRecursions = obs.GetCounter("spill.recursions")
)

// ErrSpill is the sentinel matched by errors.Is for any spill I/O
// failure.
var ErrSpill = errors.New("spill: I/O failure")

// IOError is a typed spill-tier failure: which operation failed and
// why. It matches ErrSpill under errors.Is.
type IOError struct {
	Op  string // "create", "write", "flush", "read", "decode", "repartition"
	Err error
}

func (e *IOError) Error() string { return fmt.Sprintf("spill: %s: %v", e.Op, e.Err) }

// Unwrap exposes the underlying cause.
func (e *IOError) Unwrap() error { return e.Err }

// Is matches the ErrSpill sentinel.
func (e *IOError) Is(target error) bool { return target == ErrSpill }

// abort wraps an operation failure as a typed IOError and counts it.
func abort(op string, err error) error {
	cAborts.Inc()
	return &IOError{Op: op, Err: err}
}

// partition is one temp file of framed tuples.
type partition struct {
	f      *os.File
	w      *bufio.Writer
	tuples int
	bytes  int64
}

// PartitionSet hash-partitions a tuple stream across n temp files in
// dir. Files are created lazily (an empty partition costs nothing),
// charged against the tracker's spill cap as frames are written, and
// removed — with the charges refunded — on Close. Writes (Add/AddTo)
// are not safe for concurrent use; Read opens its own file handle per
// call, so reads of distinct partitions may run concurrently with each
// other and with writes to other partitions.
type PartitionSet struct {
	dir    string
	tr     *budget.Tracker
	cols   []int  // hash positions; nil hashes the whole tuple
	salt   uint64 // mixed into the routing hash; 0 for top-level sets
	parts  []*partition
	buf    []byte
	closed bool
}

// NewPartitionSet prepares n partitions in the tracker's spill
// directory, routed by the tuple values at cols (nil/empty = whole
// tuple). No files exist until the first Add.
func NewPartitionSet(tr *budget.Tracker, n int, cols []int) *PartitionSet {
	return NewSaltedPartitionSet(tr, n, cols, 0)
}

// NewSaltedPartitionSet is NewPartitionSet with an explicit routing
// salt. Recursive re-partitioning uses a fresh salt per depth so an
// oversized partition — all of whose tuples collide under the parent's
// modulo — re-splits across the children; equal tuples (and equal key
// values) still co-locate at every depth because the salt is mixed
// into the canonical hash, not the values.
func NewSaltedPartitionSet(tr *budget.Tracker, n int, cols []int, salt uint64) *PartitionSet {
	if n < 1 {
		n = 1
	}
	return &PartitionSet{dir: tr.SpillDir(), tr: tr, cols: cols, salt: salt, parts: make([]*partition, n)}
}

// DepthSalt returns the routing salt for recursion depth d (0 for the
// top level, a fixed odd multiplier per level below — any non-zero
// value decorrelates the child modulo from the parent's).
func DepthSalt(d int) uint64 {
	if d <= 0 {
		return 0
	}
	return uint64(d) * 0x9e3779b97f4a7c15
}

// Route returns the partition index tuple t routes to among n
// partitions hashed on cols (nil/empty = whole tuple) with the given
// salt.
//
// The xor-shift finalizer before the modulo is load-bearing: the
// canonical hashes (and MixUint64) use only xor and multiplication,
// which preserve congruences mod powers of two — with the power-of-2
// fan-out, a salted child index would otherwise be a pure permutation
// of the parent's and recursion could never split an oversized
// partition. The shifts fold high bits into the low bits the modulo
// reads, decorrelating the child split from the parent's.
func Route(t relation.Tuple, cols []int, salt uint64, n int) int {
	if len(cols) > 0 {
		return RouteHash(t.HashOn(cols), salt, n)
	}
	return RouteHash(t.Hash64(), salt, n)
}

// RouteHash is Route for a precomputed canonical hash: t.HashOn(cols),
// or t.Hash64() when routing on the whole tuple — or the bit-identical
// relation.Batch.HashRowsOn/HashRows of the same values, which is how
// in-memory sides of a join split their groups with byte-identical
// routing to a spilled counterpart.
func RouteHash(h, salt uint64, n int) int {
	if salt != 0 {
		h = value.MixUint64(h, salt)
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return int(h % uint64(n))
}

// N returns the partition fan-out.
func (ps *PartitionSet) N() int { return len(ps.parts) }

// Bytes returns the total frame bytes written.
func (ps *PartitionSet) Bytes() int64 {
	var n int64
	for _, p := range ps.parts {
		if p != nil {
			n += p.bytes
		}
	}
	return n
}

// Created returns how many partition files exist on disk.
func (ps *PartitionSet) Created() int {
	n := 0
	for _, p := range ps.parts {
		if p != nil {
			n++
		}
	}
	return n
}

// Index returns the partition tuple t routes to. Equal tuples (and,
// with cols set, tuples with equal key values) share an index.
func (ps *PartitionSet) Index(t relation.Tuple) int {
	return Route(t, ps.cols, ps.salt, len(ps.parts))
}

// Add routes t to its partition and appends one frame.
func (ps *PartitionSet) Add(t relation.Tuple) error { return ps.AddTo(ps.Index(t), t) }

// AddTo appends one frame for t to partition i.
func (ps *PartitionSet) AddTo(i int, t relation.Tuple) error {
	p := ps.parts[i]
	if p == nil {
		if err := fault.Inject("spill.create"); err != nil {
			return abort("create", err)
		}
		f, err := os.CreateTemp(ps.dir, filePattern)
		if err != nil {
			return abort("create", err)
		}
		p = &partition{f: f, w: bufio.NewWriter(f)}
		ps.parts[i] = p
		cPartitions.Inc()
		ps.tr.AddSpillParts(1)
	}
	ps.buf = appendFrame(ps.buf[:0], t)
	n := int64(len(ps.buf))
	if err := ps.tr.ChargeSpill(n); err != nil {
		cAborts.Inc()
		return err
	}
	// The partition owns the charge before anything can fail or panic:
	// Close refunds p.bytes.
	p.bytes += n
	err := fault.Inject("spill.write")
	if err == nil {
		_, err = p.w.Write(ps.buf)
	}
	if err != nil {
		p.bytes -= n
		ps.tr.RefundSpill(n)
		return abort("write", err)
	}
	p.tuples++
	cBytes.Add(n)
	return nil
}

// Read replays partition i in write order, decoding each frame over
// scheme s and passing it to visit. A visit error stops the read and
// is returned as-is; I/O and corruption surface as *IOError.
//
// The read goes through its own read-only file handle: the retained
// write handle (and its bufio.Writer) never moves, so interleaving
// AddTo after a Read — full or abandoned partway — appends at the
// correct offset. Recursive re-partitioning depends on exactly that
// interleaving.
func (ps *PartitionSet) Read(i int, s *relation.Scheme, visit func(relation.Tuple) error) error {
	p := ps.parts[i]
	if p == nil {
		return nil
	}
	if err := fault.Inject("spill.flush"); err != nil {
		return abort("flush", err)
	}
	if err := p.w.Flush(); err != nil {
		return abort("flush", err)
	}
	f, err := os.Open(p.f.Name())
	if err != nil {
		return abort("read", err)
	}
	defer f.Close()
	r := bufio.NewReader(f)
	var head [8]byte
	var payload []byte
	unread := p.bytes
	for n := 0; n < p.tuples; n++ {
		if err := fault.Inject("spill.read"); err != nil {
			return abort("read", err)
		}
		if _, err := io.ReadFull(r, head[:]); err != nil {
			return abort("read", fmt.Errorf("frame %d: %w", n, err))
		}
		unread -= int64(len(head))
		size := binary.LittleEndian.Uint32(head[0:4])
		sum := binary.LittleEndian.Uint32(head[4:8])
		// A corrupt length must not size the allocation: no frame is
		// longer than what the partition has left.
		if int64(size) > unread {
			return abort("read", fmt.Errorf("frame %d: length %d exceeds the %d unread bytes", n, size, unread))
		}
		unread -= int64(size)
		if int(size) > cap(payload) {
			payload = make([]byte, size)
		}
		payload = payload[:size]
		if _, err := io.ReadFull(r, payload); err != nil {
			return abort("read", fmt.Errorf("frame %d: %w", n, err))
		}
		if crc32.ChecksumIEEE(payload) != sum {
			return abort("read", fmt.Errorf("frame %d: checksum mismatch", n))
		}
		t, err := DecodeTuple(payload, s)
		if err != nil {
			return abort("decode", fmt.Errorf("frame %d: %w", n, err))
		}
		if err := visit(t); err != nil {
			return err
		}
	}
	return nil
}

// Repartition re-splits partition i across a fresh salted child set
// with fan-out n, leaving the parent partition intact. Equal tuples
// co-locate in exactly one child (the salt is mixed into the canonical
// hash), so per-child dedup/joins stay globally exact. The child is
// the caller's to Close; on an error or a panic it is already closed.
// Callers typically DropPart(i) afterward to reclaim the parent's disk.
func (ps *PartitionSet) Repartition(i int, s *relation.Scheme, n int, salt uint64) (*PartitionSet, error) {
	if err := fault.Inject("spill.repartition"); err != nil {
		return nil, abort("repartition", err)
	}
	child := NewSaltedPartitionSet(ps.tr, n, ps.cols, salt)
	done := false
	defer func() {
		if !done {
			child.Close()
		}
	}()
	if err := ps.Read(i, s, func(t relation.Tuple) error { return child.Add(t) }); err != nil {
		return nil, err
	}
	done = true
	cRecursions.Inc()
	return child, nil
}

// DropPart removes partition i's file and refunds its disk charge
// without closing the set: once a partition has been re-partitioned
// into a child set its parent copy is dead weight. Reading or writing
// a dropped partition afterward treats it as empty.
func (ps *PartitionSet) DropPart(i int) {
	p := ps.parts[i]
	if p == nil {
		return
	}
	name := p.f.Name()
	p.f.Close()
	os.Remove(name)
	ps.tr.RefundSpill(p.bytes)
	ps.parts[i] = nil
}

// RecordStats publishes each created partition's final byte count
// into the tracker's spill statistics (EXPLAIN's partition skew). Call
// once per set, after sinking completes.
func (ps *PartitionSet) RecordStats() {
	for _, p := range ps.parts {
		if p != nil {
			ps.tr.NotePartition(p.bytes)
		}
	}
}

// Close removes every partition file and refunds the spill charges.
// Idempotent; errors are ignored (the files are scratch).
func (ps *PartitionSet) Close() {
	if ps == nil || ps.closed {
		return
	}
	ps.closed = true
	for i, p := range ps.parts {
		if p == nil {
			continue
		}
		name := p.f.Name()
		p.f.Close()
		os.Remove(name)
		ps.tr.RefundSpill(p.bytes)
		ps.parts[i] = nil
	}
}

// appendFrame appends one framed tuple to buf:
// [len][crc32][payload].
func appendFrame(buf []byte, t relation.Tuple) []byte {
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0)
	buf = AppendTuple(buf, t)
	payload := buf[8:]
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(payload))
	return buf
}

// AppendTuple appends the tuple payload encoding: per value a kind tag
// byte and a self-delimiting body. The scheme is not encoded — spill
// files hold tuples of one scheme, supplied again at decode time.
func AppendTuple(buf []byte, t relation.Tuple) []byte {
	for i, n := 0, t.Scheme().Arity(); i < n; i++ {
		v := t.At(i)
		switch v.Kind() {
		case value.KindNull:
			buf = append(buf, 'n')
		case value.KindString:
			s := v.Str()
			buf = append(buf, 's')
			buf = binary.AppendUvarint(buf, uint64(len(s)))
			buf = append(buf, s...)
		case value.KindInt:
			buf = append(buf, 'i')
			buf = binary.AppendVarint(buf, v.IntVal())
		case value.KindFloat:
			buf = append(buf, 'f')
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.FloatVal()))
		case value.KindBool:
			if v.BoolVal() {
				buf = append(buf, 'T')
			} else {
				buf = append(buf, 'F')
			}
		}
	}
	return buf
}

// DecodeTuple parses one tuple payload over scheme s. The payload must
// contain exactly the scheme's arity of values.
func DecodeTuple(payload []byte, s *relation.Scheme) (relation.Tuple, error) {
	vals := make([]value.Value, s.Arity())
	pos := 0
	for i := range vals {
		if pos >= len(payload) {
			return relation.Tuple{}, fmt.Errorf("truncated payload at value %d", i)
		}
		tag := payload[pos]
		pos++
		switch tag {
		case 'n':
			vals[i] = value.Null
		case 's':
			n, w := binary.Uvarint(payload[pos:])
			if w <= 0 || uint64(len(payload)-pos-w) < n {
				return relation.Tuple{}, fmt.Errorf("bad string frame at value %d", i)
			}
			pos += w
			vals[i] = value.String(string(payload[pos : pos+int(n)]))
			pos += int(n)
		case 'i':
			n, w := binary.Varint(payload[pos:])
			if w <= 0 {
				return relation.Tuple{}, fmt.Errorf("bad int frame at value %d", i)
			}
			pos += w
			vals[i] = value.Int(n)
		case 'f':
			if len(payload)-pos < 8 {
				return relation.Tuple{}, fmt.Errorf("bad float frame at value %d", i)
			}
			vals[i] = value.Float(math.Float64frombits(binary.LittleEndian.Uint64(payload[pos:])))
			pos += 8
		case 'T':
			vals[i] = value.Bool(true)
		case 'F':
			vals[i] = value.Bool(false)
		default:
			return relation.Tuple{}, fmt.Errorf("unknown value tag %q at value %d", tag, i)
		}
	}
	if pos != len(payload) {
		return relation.Tuple{}, fmt.Errorf("trailing %d bytes after tuple", len(payload)-pos)
	}
	return relation.NewTuple(s, vals...), nil
}

// SweepDir removes stale partition files left in dir by a crash (a
// kill -9 mid-spill leaks temp files; live files are always removed by
// PartitionSet.Close). It returns the number of files removed. Safe to
// call on a missing directory.
func SweepDir(dir string) (int, error) {
	matches, err := filepath.Glob(filepath.Join(dir, filePattern))
	if err != nil {
		return 0, err
	}
	removed := 0
	for _, m := range matches {
		if err := os.Remove(m); err == nil {
			removed++
		}
	}
	return removed, nil
}

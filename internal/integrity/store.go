package integrity

import (
	"sync"

	"flexio/internal/pagetab"
)

// Store keeps the at-rest side of the integrity layer for one file
// system: per-file block checksums recorded at write time, the quarantine
// set of blocks whose stored bytes no longer match, and a bounded ring of
// retained block images that repairs draw from. Block granularity is the
// storage page — the unit pfs moves to and from its stripe-block store —
// so every checksum domain maps onto exactly one OST via the file offset.
//
// Everything the store knows about one block (checksum, written extent,
// quarantine) sits in one slot of its file's page-indexed table, so an
// operation on a block is one lookup. The file system resolves a name to
// its *File once per I/O call and works through that; the name-keyed Store
// methods are the same operations for callers that touch one block at a
// time (tests, isolated timings).
//
// The ring is the fast repair path: a corrupted block whose pristine
// image is still retained is fixed in place without replaying the round
// journal. Blocks that age out of the ring are only repairable by the
// journal resume path (an overwrite refreshes the checksum and clears the
// quarantine); when neither applies, reads return ErrDataIntegrity.
type Store struct {
	mu    sync.Mutex
	h     *Hasher
	files map[string]*File
	ring  []retained
	next  int

	mismatches  int64 // at-rest checksum failures detected
	quarantined int64 // blocks ever quarantined
	repairs     int64 // blocks repaired (ring or overwrite)
	unrepaired  int64 // reads that had to surface ErrDataIntegrity
	hashed      int64 // blocks hashed by verify and record
}

// File is the store's state for one file: a table of blocks by index. It is
// valid until the name is forgotten; all methods take the store's lock.
type File struct {
	st     *Store
	blocks pagetab.Table[block]
	quar   int // blocks quarantined right now
}

// block is one block's state. The store keeps two extents per block: the
// bytes ever written (sparse strided layouts leave permanent holes inside
// a block), and — while the block is quarantined — the bytes clean
// rewrites have repaved since.
type block struct {
	sum      uint64
	recorded bool
	wrote    extent
	repaved  *extent // non-nil while quarantined
}

// Span is a block-relative byte range [Off,End).
type Span struct{ Off, End int64 }

// retained is one ring slot: the image of (file, block) observed at write
// time. Slots are recycled in place — the data buffer is reused when
// capacities allow — so steady-state writes retain without allocating.
type retained struct {
	file *File
	idx  int64
	sum  uint64
	data []byte
}

// NewStore builds a store hashing with h and retaining up to ringCap
// block images (ringCap <= 0 selects a default sized for the chaos
// matrices' working sets).
func NewStore(h *Hasher, ringCap int) *Store {
	if ringCap <= 0 {
		ringCap = 256
	}
	return &Store{
		h:     h,
		files: make(map[string]*File),
		ring:  make([]retained, ringCap),
	}
}

// File returns the state of the named file, creating it on first use.
func (s *Store) File(name string) *File {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fileLocked(name)
}

func (s *Store) fileLocked(name string) *File {
	f := s.files[name]
	if f == nil {
		f = &File{st: s}
		s.files[name] = f
	}
	return f
}

// extent is a merged, sorted set of block-relative byte intervals.
// Collective engines repair in shuffle-window-sized pieces, often smaller
// than a stripe block, so a quarantine clears when the repaved union covers
// the written union, not only on one monolithic overwrite.
type extent struct {
	cover []qspan
}

type qspan struct{ off, end int64 }

// add merges [off,end) into the set. The steady-state cases — range
// already covered, or extending one existing interval — mutate in place,
// so repeated writes of a stable pattern do not allocate.
func (b *extent) add(off, end int64) {
	if end <= off {
		return
	}
	i := 0
	for i < len(b.cover) && b.cover[i].end < off {
		i++
	}
	no, ne := off, end
	j := i
	for j < len(b.cover) && b.cover[j].off <= end {
		if b.cover[j].off < no {
			no = b.cover[j].off
		}
		if b.cover[j].end > ne {
			ne = b.cover[j].end
		}
		j++
	}
	switch {
	case j == i: // pure insertion between existing intervals
		b.cover = append(b.cover, qspan{})
		copy(b.cover[i+1:], b.cover[i:len(b.cover)-1])
		b.cover[i] = qspan{no, ne}
	case j == i+1: // merges into exactly one interval: update in place
		b.cover[i] = qspan{no, ne}
	default: // swallows several intervals
		b.cover[i] = qspan{no, ne}
		b.cover = append(b.cover[:i+1], b.cover[j:]...)
	}
}

// covers reports whether the set contains all of [off,end).
func (b *extent) covers(off, end int64) bool {
	for _, sp := range b.cover {
		if sp.off <= off && sp.end >= end {
			return true
		}
	}
	return false
}

// coversAll reports whether every interval of other is covered by b.
func (b *extent) coversAll(other *extent) bool {
	for _, sp := range other.cover {
		if !b.covers(sp.off, sp.end) {
			return false
		}
	}
	return true
}

// Record is File.Record for one landed range of a block found by name.
func (s *Store) Record(name string, idx int64, data []byte, off, end int64) {
	run := [1]Span{{off, end}}
	s.mu.Lock()
	s.fileLocked(name).record(idx, data, run[:])
	s.mu.Unlock()
}

// Record checksums one block's bytes after a write landed the given byte
// ranges in it (block-relative, clamped to the block), retains a copy in
// the ring, and — once clean rewrites have repaved every byte the block
// ever held — clears any quarantine on it: a full overwrite through the
// normal datapath (including a journal-replay rewrite) is itself the
// repair, and sub-block repair pieces accumulate until their union covers
// the block's written extent. Never-written gap bytes inside the block
// (sparse strided layouts) don't gate the heal — nothing ever landed there
// for the media to corrupt. While the coverage is still partial, nothing
// is recorded: bytes outside the repaved spans are suspect, and refreshing
// the checksum over the merged content would bless corruption as verified.
// The block stays poisoned (reads keep failing) until the coverage
// completes or a ring repair heals it.
//
// A caller that landed several ranges in the block passes them all in one
// call: the content is hashed and retained once, however many pieces made
// it up, so one ring slot holds one block and a ring of N slots can repair
// the N blocks written last.
func (f *File) Record(idx int64, data []byte, runs []Span) {
	f.st.mu.Lock()
	f.record(idx, data, runs)
	f.st.mu.Unlock()
}

func (f *File) record(idx int64, data []byte, runs []Span) {
	s := f.st
	b := f.blocks.Slot(idx)
	for _, r := range runs {
		off, end := max(r.Off, 0), min(r.End, int64(len(data)))
		b.wrote.add(off, end)
		if b.repaved != nil {
			b.repaved.add(off, end)
		}
	}
	if b.repaved != nil {
		if !b.repaved.coversAll(&b.wrote) {
			return
		}
		b.repaved = nil
		f.quar--
		s.repairs++
	}
	b.sum, b.recorded = s.h.Sum(data), true
	s.hashed++
	r := &s.ring[s.next]
	s.next = (s.next + 1) % len(s.ring)
	r.file, r.idx, r.sum = f, idx, b.sum
	if cap(r.data) >= len(data) {
		r.data = r.data[:len(data)]
	} else {
		r.data = make([]byte, len(data))
	}
	copy(r.data, data)
}

// Verify is File.Verify for a block found by name; a file the store has
// never seen verifies trivially.
func (s *Store) Verify(name string, idx int64, data []byte) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	f := s.files[name]
	return f == nil || f.verify(idx, data)
}

// Verify checks one block's stored bytes against the recorded checksum.
// Blocks never recorded (sparse holes, pre-integrity writes) verify
// trivially. On mismatch the block is quarantined and false returned; the
// caller decides between inline repair (Repair) and surfacing the error.
func (f *File) Verify(idx int64, data []byte) bool {
	f.st.mu.Lock()
	defer f.st.mu.Unlock()
	return f.verify(idx, data)
}

func (f *File) verify(idx int64, data []byte) bool {
	b := f.blocks.Peek(idx)
	if b == nil || !b.recorded {
		return true
	}
	f.st.hashed++
	if f.st.h.Sum(data) == b.sum {
		return true
	}
	f.st.mismatches++
	if b.repaved == nil {
		b.repaved = &extent{}
		f.quar++
		f.st.quarantined++
	}
	return false
}

// Repair is File.Repair for a block found by name.
func (s *Store) Repair(name string, idx int64, dst []byte) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	f := s.files[name]
	return f != nil && f.repair(idx, dst)
}

// Repair attempts the ring repair path for a quarantined block: if a
// retained image with the recorded checksum survives, it is copied into
// dst (which must be the block's storage buffer), the quarantine cleared,
// and true returned. Otherwise the block stays quarantined for the
// journal-replay path (or an overwrite) and false is returned.
func (f *File) Repair(idx int64, dst []byte) bool {
	f.st.mu.Lock()
	defer f.st.mu.Unlock()
	return f.repair(idx, dst)
}

func (f *File) repair(idx int64, dst []byte) bool {
	s := f.st
	b := f.blocks.Peek(idx)
	if b == nil || !b.recorded {
		return false
	}
	// Scan newest-first so a block rewritten while quarantined repairs
	// from its latest image.
	for off := 1; off <= len(s.ring); off++ {
		r := &s.ring[(s.next-off+len(s.ring))%len(s.ring)]
		if r.file != f || r.idx != idx || r.sum != b.sum || len(r.data) != len(dst) {
			continue
		}
		copy(dst, r.data)
		if b.repaved != nil {
			b.repaved = nil
			f.quar--
		}
		s.repairs++
		return true
	}
	return false
}

// PreMerge is the gate a partially overwritten block passes before new
// bytes merge into it: the bytes the write leaves alone must still match
// the recorded checksum, or the overwrite would launder undetected
// corruption into a freshly blessed block. A block already quarantined is
// not verified again (its mismatch is already counted); either way a
// mismatched block gets one ring repair attempt. It reports whether this
// call detected a new mismatch and whether the block was repaired.
func (f *File) PreMerge(idx int64, data []byte) (mismatch, repaired bool) {
	f.st.mu.Lock()
	defer f.st.mu.Unlock()
	if b := f.blocks.Peek(idx); b != nil && b.repaved != nil {
		return false, f.repair(idx, data)
	}
	if f.verify(idx, data) {
		return false, false
	}
	return true, f.repair(idx, data)
}

// NoteUnrepairable counts a read that had to surface ErrDataIntegrity.
func (s *Store) NoteUnrepairable() {
	s.mu.Lock()
	s.unrepaired++
	s.mu.Unlock()
}

// Forget drops all checksum and quarantine state for one file (the file
// was removed; its ring images are left to age out naturally). A *File
// obtained earlier for the name must not be used afterwards.
func (s *Store) Forget(name string) {
	s.mu.Lock()
	delete(s.files, name)
	s.mu.Unlock()
}

// Quarantined reports whether (name, idx) is currently quarantined.
func (s *Store) Quarantined(name string, idx int64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	f := s.files[name]
	if f == nil {
		return false
	}
	b := f.blocks.Peek(idx)
	return b != nil && b.repaved != nil
}

// Stats is a point-in-time snapshot of the store's counters.
type Stats struct {
	Mismatches  int64 // at-rest checksum failures detected
	Quarantined int64 // blocks ever quarantined
	Repairs     int64 // blocks repaired (ring hit or overwrite)
	Unrepaired  int64 // reads that surfaced ErrDataIntegrity
	Backlog     int   // blocks quarantined right now
	Hashed      int64 // blocks hashed by verify and record
}

// Snapshot returns the store's counters.
func (s *Store) Snapshot() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	backlog := 0
	for _, f := range s.files {
		backlog += f.quar
	}
	return Stats{
		Mismatches:  s.mismatches,
		Quarantined: s.quarantined,
		Repairs:     s.repairs,
		Unrepaired:  s.unrepaired,
		Backlog:     backlog,
		Hashed:      s.hashed,
	}
}

// Package mpiio implements the MPI-IO layer of the stack: open files with
// file views (MPI_File_set_view), hints (MPI Info), independent
// noncontiguous read/write through pluggable access methods (data sieving,
// naive per-segment I/O, list I/O), and the collective entry points
// (MPI_File_read_all / MPI_File_write_all) that delegate to a pluggable
// collective implementation.
//
// The layering mirrors the paper's design: collective implementations fill
// and drain their collective buffers through this package's independent
// noncontiguous calls, so any independent optimization is available —
// per two-phase round — to collective I/O.
package mpiio

import (
	"fmt"

	"flexio/internal/bufpool"
	"flexio/internal/datatype"
	"flexio/internal/mpi"
	"flexio/internal/pfs"
	"flexio/internal/realm"
	"flexio/internal/sim"
	"flexio/internal/stats"
	"flexio/internal/trace"
)

// Method selects how a noncontiguous independent access reaches the file
// system.
type Method int

const (
	// DataSieve reads the covering extent into a sieve buffer, modifies
	// the useful bytes, and writes the extent back (one large I/O per
	// sieve window plus a memory pass). Efficient for dense small
	// pieces; wasteful when the access is sparse in a large extent.
	DataSieve Method = iota
	// Naive issues one file system call per contiguous piece. Efficient
	// for large pieces; per-call overhead dominates for small ones.
	Naive
	// ListIO passes the whole segment list to the file system in a
	// single call (PVFS-style listio). No sieve buffer, one overhead.
	ListIO
	// IntegratedSieve is data sieving done in the caller's own buffer, the
	// way ROMIO's two-phase code sieves inside its collective buffer: the
	// whole list is one read(-modify)-write of its covering extent however
	// large SieveBufSize is, and there is no pass through a separate sieve
	// buffer to charge. Filling the buffer is the caller's pass to charge.
	IntegratedSieve
)

// String names the method.
func (m Method) String() string {
	switch m {
	case DataSieve:
		return "datasieve"
	case Naive:
		return "naive"
	case ListIO:
		return "listio"
	case IntegratedSieve:
		return "integrated"
	default:
		return fmt.Sprintf("method(%d)", int(m))
	}
}

// Collective is a pluggable collective I/O implementation
// (flexio/internal/core's New is the paper's, its ROMIO the ROMIO-style
// baseline).
type Collective interface {
	Name() string
	WriteAll(f *File, buf []byte, memtype datatype.Type, count int64) error
	ReadAll(f *File, buf []byte, memtype datatype.Type, count int64) error
}

// Info carries the open-time hints (the MPI Info object).
type Info struct {
	// Collective handles WriteAll/ReadAll. Nil falls back to
	// independent I/O, as MPI permits.
	Collective Collective
	// IndepMethod is used by independent noncontiguous accesses
	// (default DataSieve, matching ROMIO).
	IndepMethod Method
	// SieveBufSize bounds the data sieve buffer (ind_wr_buffer_size).
	// Zero means 4 MB.
	SieveBufSize int64
	// CollBufSize bounds the two-phase collective buffer
	// (cb_buffer_size). Zero means 4 MB.
	CollBufSize int64
	// CbNodes is the number of I/O aggregators (cb_nodes). Zero means
	// every rank aggregates.
	CbNodes int
	// RetryLimit bounds transparent retries of transient storage errors
	// per independent operation. Zero means 4; negative disables retries
	// (errors surface immediately).
	RetryLimit int
	// RetryBackoff is the initial virtual-time backoff before the first
	// retry, doubled on each subsequent retry of the same operation.
	// Zero means 500 microseconds.
	RetryBackoff sim.Time
	// RetryDeadline caps the total virtual time (first attempt included)
	// one independent operation may spend across retries and partial
	// resumptions. Zero means 250 milliseconds.
	RetryDeadline sim.Time
}

func (i Info) withDefaults() Info {
	if i.SieveBufSize <= 0 {
		i.SieveBufSize = 4 << 20
	}
	if i.CollBufSize <= 0 {
		i.CollBufSize = 4 << 20
	}
	if i.RetryLimit == 0 {
		i.RetryLimit = 4
	}
	if i.RetryBackoff <= 0 {
		i.RetryBackoff = 500e-6
	}
	if i.RetryDeadline <= 0 {
		i.RetryDeadline = 0.25
	}
	return i
}

// View is the file view: accessible file bytes are count-unbounded tilings
// of Filetype starting at Disp. Etype is the elementary unit; Filetype's
// size must be a multiple of Etype's.
type View struct {
	Disp     int64
	Etype    datatype.Type
	Filetype datatype.Type
}

// File is an open MPI file handle on one rank.
type File struct {
	proc   *mpi.Proc
	fs     *pfs.FileSystem
	handle *pfs.Handle
	client *pfs.Client
	info   Info
	view   View

	// pfr holds persistent file realms across collective calls (paper
	// §5.2); owned by the collective implementation via PFR/SetPFR.
	pfr *realm.Assignment

	// pos is the individual file pointer in etype units (MPI_File_seek /
	// the pointer-relative read/write forms).
	pos int64

	// sievePending/sieveGroup are sieveWindows scratch, reused across
	// calls; a File is driven by one rank goroutine and the storage layer
	// consumes segment lists synchronously, so reuse is safe.
	sievePending []sieveSeg
	sieveGroup   []datatype.Seg

	closed bool
}

// Open opens (creating if necessary) the named file. Like MPI_File_open it
// is collective: every rank of the communicator must call it. The default
// view is a byte stream from offset 0.
func Open(p *mpi.Proc, fs *pfs.FileSystem, name string, info Info) (*File, error) {
	if p == nil || fs == nil {
		return nil, fmt.Errorf("mpiio: Open requires a process and a file system")
	}
	if name == "" {
		return nil, fmt.Errorf("mpiio: empty file name")
	}
	info = info.withDefaults()
	if info.CbNodes < 0 || info.CbNodes > p.Size() {
		return nil, fmt.Errorf("mpiio: cb_nodes %d out of range [0,%d]", info.CbNodes, p.Size())
	}
	client := fs.NewClient(p.Stats)
	client.SetTracer(p.Trace)
	client.SetMetrics(p.Metrics)
	f := &File{
		proc:   p,
		fs:     fs,
		handle: client.Open(name),
		client: client,
		info:   info,
		view:   View{Disp: 0, Etype: datatype.Bytes(1), Filetype: datatype.Bytes(1)},
	}
	p.Barrier()
	return f, nil
}

// Close releases the handle; collective like MPI_File_close.
func (f *File) Close() error {
	if f.closed {
		return fmt.Errorf("mpiio: file %q already closed", f.handle.Name())
	}
	f.closed = true
	f.pfr = nil
	f.client.Close()
	f.proc.Barrier()
	return nil
}

// SetView installs a new file view (MPI_File_set_view). Collective.
// Persistent file realms survive view changes: realms are a property of
// the file's bytes, set by the first collective call and kept until close
// (paper §5.2), which is what lets the time-step workloads keep their
// realm assignment while the view tracks the moving time slice.
func (f *File) SetView(disp int64, etype, filetype datatype.Type) error {
	if f.closed {
		return fmt.Errorf("mpiio: SetView on closed file")
	}
	if disp < 0 {
		return fmt.Errorf("mpiio: negative view displacement %d", disp)
	}
	if etype == nil || filetype == nil {
		return fmt.Errorf("mpiio: SetView requires etype and filetype")
	}
	if etype.Size() > 0 && filetype.Size()%etype.Size() != 0 {
		return fmt.Errorf("mpiio: filetype size %d is not a multiple of etype size %d",
			filetype.Size(), etype.Size())
	}
	f.view = View{Disp: disp, Etype: etype, Filetype: filetype}
	f.pos = 0 // MPI_File_set_view resets the individual file pointer
	f.proc.Barrier()
	return nil
}

// Proc returns the owning rank.
func (f *File) Proc() *mpi.Proc { return f.proc }

// FS returns the underlying file system.
func (f *File) FS() *pfs.FileSystem { return f.fs }

// Handle returns the underlying per-client file handle.
func (f *File) Handle() *pfs.Handle { return f.handle }

// Info returns the (defaulted) hints.
func (f *File) Info() Info { return f.info }

// View returns the current file view.
func (f *File) View() View { return f.view }

// Name returns the file name.
func (f *File) Name() string { return f.handle.Name() }

// SetRound enters collective two-phase round r on this rank; -1 (the
// default) means "outside a collective round". Collective implementations
// call it at each round boundary and clear it before returning. It tags the
// storage operations that follow (see TagRound) and the rank's process
// handle, which is where round-triggered rank faults (crashes, stalls) fire.
func (f *File) SetRound(r int) {
	f.proc.SetRound(r)
	f.TagRound(r)
}

// TagRound tags subsequent storage operations with round r, for fault
// targeting and tracing, without entering the round on the process: a
// read-ahead issues round r+1's file access while the rank is still in round
// r, and must neither fire r+1's rank faults early nor charge them twice.
func (f *File) TagRound(r int) { f.client.SetRound(r) }

// PFR returns the persistent file realms established by an earlier
// collective call (nil if none).
func (f *File) PFR() *realm.Assignment { return f.pfr }

// SetPFR records persistent file realms for subsequent collective calls.
func (f *File) SetPFR(a *realm.Assignment) { f.pfr = a }

// ViewCursor returns a cursor over the file view's accessible bytes,
// limited to dataLen bytes of data, and charges the flattening of the
// filetype to the rank's clock.
func (f *File) ViewCursor(dataLen int64) *datatype.Cursor {
	c := datatype.NewCursor(f.view.Filetype, f.view.Disp, -1)
	c.SetLimit(dataLen)
	return c
}

// AccessBounds returns the first and last+1 file offsets a dataLen-byte
// access through the view would touch (st == en for an empty access).
func (f *File) AccessBounds(dataLen int64) (st, en int64) {
	if dataLen <= 0 || f.view.Filetype.Size() == 0 {
		return f.view.Disp, f.view.Disp
	}
	segs := f.view.Filetype.Flatten()
	st = f.view.Disp + segs[0].Off
	full := dataLen / f.view.Filetype.Size()
	rem := dataLen % f.view.Filetype.Size()
	if rem == 0 {
		en = f.view.Disp + (full-1)*f.view.Filetype.Extent() + segs[len(segs)-1].End()
		return st, en
	}
	// Walk the last partial instance to find where its data ends.
	var acc int64
	base := f.view.Disp + full*f.view.Filetype.Extent()
	for _, s := range segs {
		if acc+s.Len >= rem {
			return st, base + s.Off + (rem - acc)
		}
		acc += s.Len
	}
	return st, base + segs[len(segs)-1].End()
}

// WriteAll is MPI_File_write_all: collective write of count instances of
// memtype from buf through the file view.
func (f *File) WriteAll(buf []byte, memtype datatype.Type, count int64) error {
	if err := f.checkAccess(buf, memtype, count); err != nil {
		return err
	}
	if f.info.Collective == nil {
		return f.WriteIndependent(buf, memtype, count)
	}
	return f.info.Collective.WriteAll(f, buf, memtype, count)
}

// ReadAll is MPI_File_read_all.
func (f *File) ReadAll(buf []byte, memtype datatype.Type, count int64) error {
	if err := f.checkAccess(buf, memtype, count); err != nil {
		return err
	}
	if f.info.Collective == nil {
		return f.ReadIndependent(buf, memtype, count)
	}
	return f.info.Collective.ReadAll(f, buf, memtype, count)
}

func (f *File) checkAccess(buf []byte, memtype datatype.Type, count int64) error {
	switch {
	case f.closed:
		return fmt.Errorf("mpiio: access to closed file %q", f.handle.Name())
	case memtype == nil:
		return fmt.Errorf("mpiio: nil memory datatype")
	case count < 0:
		return fmt.Errorf("mpiio: negative count %d", count)
	case count > 0 && memtype.Extent()*count > int64(len(buf)):
		return fmt.Errorf("mpiio: buffer of %d bytes too small for %d x %s",
			len(buf), count, memtype)
	}
	return nil
}

// PackMemory linearizes the user buffer according to the memory datatype,
// charging the copy to the rank's clock.
func (f *File) PackMemory(buf []byte, memtype datatype.Type, count int64) ([]byte, error) {
	stream, err := datatype.Pack(buf, memtype, 0, count)
	if err != nil {
		return nil, err
	}
	f.ChargeCopy(int64(len(stream)))
	return stream, nil
}

// Stream is the linear data stream of one access: the bytes it moves, in
// file-view order. B is a pooled buffer the holder owns unless Pooled is
// false, when it is the caller's own buffer used in place (see Linearize)
// and must be neither modified nor recycled.
type Stream struct {
	B      []byte
	Pooled bool
}

// ReadStreamBuf returns the private, zeroed, pooled stream a read of n bytes
// fills before it is unpacked: reads never alias the user buffer, so an
// aborted collective leaves it untouched, and the zero fill keeps any byte
// the access happens not to cover identical to a fresh allocation.
func ReadStreamBuf(n int64) Stream {
	return Stream{B: bufpool.GetZero(n), Pooled: true}
}

// CollectiveStream returns the stream a collective call works on: a write's
// linearized user data (see Linearize), a read's private buffer (see
// ReadStreamBuf).
func (f *File) CollectiveStream(buf []byte, memtype datatype.Type, count int64, write, charged bool) (Stream, error) {
	if !write {
		return ReadStreamBuf(datatype.TotalSize(memtype, count)), nil
	}
	return f.Linearize(buf, memtype, count, charged)
}

// Release recycles a pooled stream. Collective engines call it after the
// rendezvous that ends the call, and not from a deferred function: peers
// hold views of a write stream until then, and a rank an injected crash
// unwinds must drop its stream to the garbage collector instead.
func (s Stream) Release() {
	if s.Pooled {
		bufpool.Put(s.B)
	}
}

// Owned returns the stream's bytes in a pooled buffer whose ownership can
// be handed to a peer that will recycle it: B itself when pooled, a pooled
// copy of the caller's buffer otherwise.
func (s Stream) Owned() []byte {
	if s.Pooled {
		return s.B
	}
	return append(bufpool.Get(int64(len(s.B)))[:0], s.B...)
}

// Linearize returns the data stream of a write: count instances of memtype
// in buf, back to back. A dense memory type — one segment at offset 0
// filling its extent, so the instances tile buf without gaps — needs no
// packing: the stream is then buf itself, in place. Every other type is
// packed into a pooled buffer. With charged set the modelled pack is
// charged to the rank's clock either way: the model packs whatever the
// host does.
func (f *File) Linearize(buf []byte, memtype datatype.Type, count int64, charged bool) (Stream, error) {
	n := datatype.TotalSize(memtype, count)
	var s Stream
	if segs := memtype.Flatten(); n >= 0 && len(segs) == 1 && segs[0].Off == 0 && segs[0].Len == memtype.Extent() {
		if n > int64(len(buf)) {
			return s, fmt.Errorf("mpiio: buffer of %d bytes too small for %d x %s", len(buf), count, memtype)
		}
		s.B = buf[:n:n]
	} else {
		scratch := bufpool.Get(n)
		packed, err := datatype.AppendPack(scratch[:0], buf, memtype, 0, count)
		if err != nil {
			bufpool.Put(scratch)
			return s, err
		}
		s = Stream{B: packed, Pooled: true}
	}
	if charged {
		f.ChargeCopy(n)
	}
	return s, nil
}

// UnpackMemory scatters a linear stream back into the user buffer.
func (f *File) UnpackMemory(stream, buf []byte, memtype datatype.Type, count int64) error {
	if err := datatype.Unpack(stream, buf, memtype, 0, count); err != nil {
		return err
	}
	f.ChargeCopy(int64(len(stream)))
	return nil
}

// ChargeCopy charges one modelled memory pass over n bytes (a pack, the
// pass through a sieve or collective buffer, a split) to the rank's clock
// as copy time.
func (f *File) ChargeCopy(n int64) {
	p := f.proc
	d := p.Config().MemcpyTime(n)
	p.Trace.Begin1(p.Clock(), stats.PCopy, trace.I(trace.BytesTag, n))
	p.AdvanceClock(d)
	p.ChargeTime(stats.PCopy, d)
	p.Trace.End(p.Clock())
}

// ChargePairs converts offset/length-pair processing into virtual time on
// the rank's clock.
func (f *File) ChargePairs(n int64) {
	if n <= 0 {
		return
	}
	d := f.proc.Config().PairTime(n)
	f.proc.Trace.Begin1(f.proc.Clock(), stats.PFlatten, trace.I("pairs", n))
	f.proc.AdvanceClock(d)
	f.proc.ChargeTime(stats.PFlatten, d)
	f.proc.Stats.Add(stats.CPairsProcessed, n)
	f.proc.Trace.End(f.proc.Clock())
}

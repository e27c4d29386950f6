package mpiio

import (
	"fmt"

	"flexio/internal/bufpool"
	"flexio/internal/datatype"
	"flexio/internal/metrics"
	"flexio/internal/mpi"
	"flexio/internal/pfs"
	"flexio/internal/sim"
	"flexio/internal/trace"
)

// ResolveAccess materializes the file segments a dataLen-byte transfer
// through the current view touches, charging the offset/length-pair
// processing to the rank's clock. The returned segments are absolute,
// sorted, disjoint, and coalesced.
func (f *File) ResolveAccess(dataLen int64) []datatype.Seg {
	segs, work := f.AppendAccess(nil, dataLen)
	f.ChargePairs(work)
	return segs
}

// AppendAccess is ResolveAccess appending to dst and charging nothing: it
// returns the pairs the flattening evaluated, for the caller to charge (or to
// have charged already, when it replays a recorded access).
func (f *File) AppendAccess(dst []datatype.Seg, dataLen int64) (segs []datatype.Seg, work int64) {
	cur := f.ViewCursor(dataLen)
	at := len(dst)
	for {
		s, _, ok := cur.Next(1 << 62)
		if !ok {
			break
		}
		if n := len(dst); n > at && dst[n-1].End() == s.Off {
			dst[n-1].Len += s.Len
		} else {
			dst = append(dst, s)
		}
	}
	return dst, cur.Work()
}

// WriteIndependent is MPI_File_write: an independent noncontiguous write
// through the file view using the hinted access method.
func (f *File) WriteIndependent(buf []byte, memtype datatype.Type, count int64) error {
	if err := f.checkAccess(buf, memtype, count); err != nil {
		return err
	}
	stream, err := f.Linearize(buf, memtype, count, true)
	if err != nil {
		return err
	}
	segs := f.ResolveAccess(int64(len(stream.B)))
	err = f.WriteStream(segs, pfs.Bytes(stream.B), f.info.IndepMethod)
	// Storage copies the bytes into its pages synchronously, so the stream
	// can be recycled as soon as WriteStream returns.
	stream.Release()
	return err
}

// ReadIndependent is MPI_File_read.
func (f *File) ReadIndependent(buf []byte, memtype datatype.Type, count int64) error {
	if err := f.checkAccess(buf, memtype, count); err != nil {
		return err
	}
	n := datatype.TotalSize(memtype, count)
	// ReadStream fills every byte of the stream (segment bytes must equal
	// the stream length), so the pooled buffer needs no zeroing.
	stream := bufpool.Get(n)
	segs := f.ResolveAccess(n)
	if err := f.ReadStream(segs, stream, f.info.IndepMethod); err != nil {
		bufpool.Put(stream)
		return err
	}
	err := f.UnpackMemory(stream, buf, memtype, count)
	bufpool.Put(stream)
	return err
}

// WriteStream writes a linear data stream into the given absolute file
// segments using the chosen method, advancing the rank's clock. This is
// the internal independent call the collective implementations use to
// drain their collective buffers — the layering that lets a collective
// call pick a different optimization per two-phase round (paper §5.1).
// The stream is read in place: storage copies each byte once, into its
// page, and whatever the method, nothing is copied on the way down (bar the
// staging of overlapping segments cut at a sieve-window edge).
func (f *File) WriteStream(segs []datatype.Seg, data pfs.Data, m Method) error {
	return f.stream(segs, data, m, true)
}

// ReadStream reads the given absolute file segments into a linear buffer.
func (f *File) ReadStream(segs []datatype.Seg, buf []byte, m Method) error {
	return f.stream(segs, pfs.Bytes(buf), m, false)
}

// ReadViews is ReadStream without the copy: it issues the same storage
// requests (windows, retries and charges included) timing-only and, once
// they succeed, appends to dst views of the bytes of segs where they lie in
// the file's pages, in list order (see pfs.Handle.Views). The views are
// only to be read, and only until the file is next written. On failure dst
// comes back as it was.
func (f *File) ReadViews(segs []datatype.Seg, dst [][]byte, m Method) ([][]byte, error) {
	var total int64
	for _, s := range segs {
		total += s.Len
	}
	if err := f.stream(segs, pfs.None(total), m, false); err != nil {
		return dst, err
	}
	return f.handle.Views(segs, dst), nil
}

// stream moves a linear stream to (write) or from (read: data is the
// destination, None for a timing-only read) the given absolute file segments
// with method m, as one io interval. Whatever the method and direction, each
// storage call is one pfs request: a list of segments (WriteData, ReadList)
// or a sieve window (File.sieve), retried and resumed the same way.
func (f *File) stream(segs []datatype.Seg, data pfs.Data, m Method, write bool) error {
	op, call, what := "read", "ReadStream", "buffer"
	if write {
		op, call, what = "write", "WriteStream", "data"
	}
	var total int64
	for _, s := range segs {
		total += s.Len
	}
	if total != data.Len() {
		return fmt.Errorf("mpiio: %s: %d segment bytes, %d %s bytes", call, total, data.Len(), what)
	}
	if total == 0 {
		return nil
	}
	defer f.proc.End(f.ioSpan(op, m, len(segs), total))
	// list moves d to or from segs with one storage request, the tail a
	// partial transfer left resumed as one more.
	list := func(segs []datatype.Seg, d pfs.Data) error {
		return f.withRetry(op, func(skip int64, now sim.Time) (sim.Time, error) {
			_, tail := datatype.SplitSegs(segs, skip)
			if write {
				return f.handle.WriteData(tail, d.Slice(skip, d.Len()), now)
			}
			return f.handle.ReadList(tail, d.Slice(skip, d.Len()).Buf(), now)
		})
	}
	switch {
	case m == IntegratedSieve:
		return f.sieve(op, segs, data)
	case len(segs) == 1 || m == ListIO:
		// One segment is the contiguous fast path: "contiguous in memory to
		// contiguous in file".
		return list(segs, data)
	}
	switch m {
	case Naive:
		pos := int64(0)
		for k, s := range segs {
			if err := list(segs[k:k+1], data.Slice(pos, pos+s.Len)); err != nil {
				return err
			}
			pos += s.Len
		}
		return nil
	case DataSieve:
		return f.sieveWindows(op, segs, data)
	}
	return fmt.Errorf("mpiio: unknown access method %v", m)
}

// ioSpan opens a stream's io interval. Its tags are built only when tracing
// (four would allocate per call otherwise), and here rather than in stream:
// the storage calls run below stream's frame, on a rank goroutine's stack.
func (f *File) ioSpan(op string, m Method, segs int, total int64) mpi.Interval {
	if f.proc.Trace == nil {
		return f.proc.Begin(metrics.PIO)
	}
	return f.proc.Begin(metrics.PIO, trace.S("op", op), trace.S("method", m.String()),
		trace.I("segs", int64(segs)), trace.I(trace.BytesTag, total))
}

// spanOf returns the extent covering a non-empty offset-sorted list (whose
// segments may overlap, so the last one need not end it).
func spanOf(segs []datatype.Seg) datatype.Seg {
	lo, hi := segs[0].Off, segs[0].End()
	for _, s := range segs[1:] {
		hi = max(hi, s.End())
	}
	return datatype.Seg{Off: lo, Len: hi - lo}
}

// sieveWindows splits a noncontiguous access into sieve-buffer-sized
// windows and performs each as one contiguous read(-modify-write) through
// the data sieve buffer. The pass through the sieve buffer is an extra
// memory copy of the useful bytes — the double-buffering cost the paper
// attributes to layering collective I/O on the independent path. It is a
// modelled copy only: the charge is issued here, and the storage layer
// moves the useful bytes straight between data and the file's pages.
//
// The list is offset-sorted but may overlap (a segment may contain the next),
// so a window's span ends at its furthest segment end, and every segment that
// starts inside a window contributes its head to it; heads cut at the window
// edge leave their remainders, in list order, to start the next window.
func (f *File) sieveWindows(op string, segs []datatype.Seg, data pfs.Data) error {
	sieve := f.info.SieveBufSize
	if spanOf(segs).Len <= sieve {
		// One window: the list goes to storage as it is.
		f.ChargeCopy(data.Len())
		return f.sieve(op, segs, data)
	}
	write := op == "write"
	pending := f.sievePending[:0]
	var at int64
	for _, s := range segs {
		pending = append(pending, sieveSeg{s, at})
		at += s.Len
	}
	f.sievePending = pending
	for i := 0; i < len(pending); {
		wlo := pending[i].Off
		wend := wlo + sieve
		group := f.sieveGroup[:0]
		var useful int64
		contiguous := true // the heads' bytes follow one another in data
		j := i
		for ; j < len(pending) && pending[j].Off < wend; j++ {
			s := pending[j]
			head := datatype.Seg{Off: s.Off, Len: min(s.End(), wend) - s.Off}
			contiguous = contiguous && (j == i || s.at == pending[j-1].at+group[len(group)-1].Len)
			group = append(group, head)
			useful += head.Len
		}

		// The modelled copy through the sieve buffer.
		f.ChargeCopy(useful)

		// Heads that do not follow one another in data (a segment cut at
		// the edge while a later one starts inside the window, which only
		// overlapping segments do) move through a staging buffer in window
		// order. A timing-only read moves no bytes to stage.
		chunk := data.Slice(pending[i].at, pending[i].at+useful)
		contiguous = contiguous || !write && data.Buf() == nil
		var staged []byte
		if !contiguous {
			staged = bufpool.Get(useful)
			chunk = pfs.Bytes(staged)
		}
		stage := func() {
			var pos int64
			for k, h := range group {
				d := data.Slice(pending[i+k].at, pending[i+k].at+h.Len)
				if write {
					d.Copy(staged[pos:pos+h.Len], 0)
				} else {
					copy(d.Buf(), staged[pos:])
				}
				pos += h.Len
			}
		}
		if write && !contiguous {
			stage()
		}
		err := f.sieve(op, group, chunk)
		if err == nil && !write && !contiguous {
			stage()
		}
		if !contiguous {
			bufpool.Put(staged)
		}
		if err != nil {
			return err
		}
		f.sieveGroup = group[:0]

		// The remainders past the edge, in list order, start the next window
		// (they all start at wend, so the list stays sorted).
		k := j
		for m := j - 1; m >= i; m-- {
			if s := pending[m]; s.End() > wend {
				k--
				pending[k] = sieveSeg{datatype.Seg{Off: wend, Len: s.End() - wend}, s.at + wend - s.Off}
			}
		}
		i = k
	}
	return nil
}

// sieveSeg is a segment sieveWindows has yet to move and where its bytes sit
// in the caller's data.
type sieveSeg struct {
	datatype.Seg
	at int64
}

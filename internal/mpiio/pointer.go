package mpiio

import (
	"fmt"
	"io"

	"flexio/internal/datatype"
	"flexio/internal/pfs"
)

// This file implements the explicit-offset and individual-file-pointer
// forms of independent I/O (MPI_File_write_at / read_at / seek / write /
// read). Offsets are expressed in etype units and address positions within
// the file view's data stream, exactly as MPI-IO defines them.

// etypeSize returns the view's elementary size (at least 1).
func (f *File) etypeSize() int64 {
	if s := f.view.Etype.Size(); s > 0 {
		return s
	}
	return 1
}

// resolveAt materializes the file segments of dataLen bytes of the view
// stream starting at stream byte streamOff, charging pair work.
func (f *File) resolveAt(streamOff, dataLen int64) []datatype.Seg {
	cur := datatype.NewCursor(f.view.Filetype, f.view.Disp, -1)
	cur.SetLimit(streamOff + dataLen)
	if dataLen > 0 {
		cur.SeekStream(streamOff)
	}
	var segs []datatype.Seg
	for {
		s, _, ok := cur.Next(1 << 62)
		if !ok {
			break
		}
		if n := len(segs); n > 0 && segs[n-1].End() == s.Off {
			segs[n-1].Len += s.Len
		} else {
			segs = append(segs, s)
		}
	}
	f.ChargePairs(cur.Work())
	return segs
}

// WriteAt is MPI_File_write_at: an independent write starting at `offset`
// etype units into the file view.
func (f *File) WriteAt(offset int64, buf []byte, memtype datatype.Type, count int64) error {
	if err := f.checkAccess(buf, memtype, count); err != nil {
		return err
	}
	if offset < 0 {
		return fmt.Errorf("mpiio: negative offset %d", offset)
	}
	stream, err := f.PackMemory(buf, memtype, count)
	if err != nil {
		return err
	}
	segs := f.resolveAt(offset*f.etypeSize(), int64(len(stream)))
	return f.WriteStream(segs, pfs.Bytes(stream), f.info.IndepMethod)
}

// ReadAt is MPI_File_read_at.
func (f *File) ReadAt(offset int64, buf []byte, memtype datatype.Type, count int64) error {
	if err := f.checkAccess(buf, memtype, count); err != nil {
		return err
	}
	if offset < 0 {
		return fmt.Errorf("mpiio: negative offset %d", offset)
	}
	n := datatype.TotalSize(memtype, count)
	stream := make([]byte, n)
	segs := f.resolveAt(offset*f.etypeSize(), n)
	if err := f.ReadStream(segs, stream, f.info.IndepMethod); err != nil {
		return err
	}
	return f.UnpackMemory(stream, buf, memtype, count)
}

// Seek positions the individual file pointer (in etype units), following
// io.SeekStart / io.SeekCurrent semantics, and returns the new position.
func (f *File) Seek(offset int64, whence int) (int64, error) {
	if f.closed {
		return 0, fmt.Errorf("mpiio: Seek on closed file")
	}
	var next int64
	switch whence {
	case io.SeekStart:
		next = offset
	case io.SeekCurrent:
		next = f.pos + offset
	default:
		return 0, fmt.Errorf("mpiio: unsupported whence %d", whence)
	}
	if next < 0 {
		return 0, fmt.Errorf("mpiio: seek to negative position %d", next)
	}
	f.pos = next
	return f.pos, nil
}

// Tell returns the individual file pointer in etype units.
func (f *File) Tell() int64 { return f.pos }

// Write is MPI_File_write: an independent write at the individual file
// pointer, which advances by the amount written.
func (f *File) Write(buf []byte, memtype datatype.Type, count int64) error {
	if err := f.WriteAt(f.pos, buf, memtype, count); err != nil {
		return err
	}
	f.advance(memtype, count)
	return nil
}

// Read is MPI_File_read at the individual file pointer.
func (f *File) Read(buf []byte, memtype datatype.Type, count int64) error {
	if err := f.ReadAt(f.pos, buf, memtype, count); err != nil {
		return err
	}
	f.advance(memtype, count)
	return nil
}

func (f *File) advance(memtype datatype.Type, count int64) {
	f.pos += datatype.TotalSize(memtype, count) / f.etypeSize()
}

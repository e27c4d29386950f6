package mpiio

import (
	"bytes"
	"reflect"
	"testing"

	"flexio/internal/datatype"
	"flexio/internal/mpi"
	"flexio/internal/pfs"
	"flexio/internal/sim"
)

func single(t *testing.T, fn func(f *File, fs *pfs.FileSystem)) {
	t.Helper()
	cfg := sim.DefaultConfig()
	w := mpi.NewWorld(1, cfg)
	fs := pfs.NewFileSystem(cfg)
	w.Run(func(p *mpi.Proc) {
		f, err := Open(p, fs, "test.dat", Info{})
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		fn(f, fs)
		if err := f.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	})
}

func TestOpenValidation(t *testing.T) {
	cfg := sim.DefaultConfig()
	w := mpi.NewWorld(1, cfg)
	fs := pfs.NewFileSystem(cfg)
	w.Run(func(p *mpi.Proc) {
		if _, err := Open(p, fs, "", Info{}); err == nil {
			t.Error("empty name accepted")
		}
		if _, err := Open(nil, fs, "x", Info{}); err == nil {
			t.Error("nil proc accepted")
		}
		if _, err := Open(p, fs, "x", Info{CbNodes: 5}); err == nil {
			t.Error("cb_nodes > size accepted")
		}
	})
}

func TestInfoDefaults(t *testing.T) {
	single(t, func(f *File, _ *pfs.FileSystem) {
		if f.Info().SieveBufSize != 4<<20 || f.Info().CollBufSize != 4<<20 {
			t.Errorf("defaults not applied: %+v", f.Info())
		}
	})
}

func TestSetViewValidation(t *testing.T) {
	single(t, func(f *File, _ *pfs.FileSystem) {
		if err := f.SetView(-1, datatype.Bytes(1), datatype.Bytes(4)); err == nil {
			t.Error("negative disp accepted")
		}
		if err := f.SetView(0, nil, datatype.Bytes(4)); err == nil {
			t.Error("nil etype accepted")
		}
		// Filetype size 6 is not a multiple of etype size 4.
		if err := f.SetView(0, datatype.Bytes(4), datatype.Bytes(6)); err == nil {
			t.Error("non-multiple filetype accepted")
		}
		if err := f.SetView(8, datatype.Bytes(4), datatype.Bytes(8)); err != nil {
			t.Errorf("valid view rejected: %v", err)
		}
	})
}

func TestDoubleCloseFails(t *testing.T) {
	cfg := sim.DefaultConfig()
	w := mpi.NewWorld(1, cfg)
	fs := pfs.NewFileSystem(cfg)
	w.Run(func(p *mpi.Proc) {
		f, _ := Open(p, fs, "x", Info{})
		if err := f.Close(); err != nil {
			t.Error(err)
		}
		if err := f.Close(); err == nil {
			t.Error("double close accepted")
		}
		if err := f.WriteAll(nil, datatype.Bytes(0), 0); err == nil {
			t.Error("access after close accepted")
		}
	})
}

// TestCloseReleasesClient: closing a file deregisters its pfs client, so a
// job that reopens its files does not leave one page cache per open behind
// in the file system; what the closed clients locked stays revocable.
func TestCloseReleasesClient(t *testing.T) {
	cfg := sim.DefaultConfig()
	fs := pfs.NewFileSystem(cfg)
	start := fs.Clients()
	w := mpi.NewWorld(2, cfg)
	w.Run(func(p *mpi.Proc) {
		for i := 0; i < 100; i++ {
			f, err := Open(p, fs, "reopen.dat", Info{})
			if err != nil {
				t.Errorf("open %d: %v", i, err)
				return
			}
			// Both ranks write the same page: each open revokes what the
			// other rank's previous, closed client still holds.
			if err := f.WriteStream([]datatype.Seg{{Off: int64(p.Rank()) * 64, Len: 64}}, pfs.Bytes(make([]byte, 64)), Naive); err != nil {
				t.Errorf("write %d: %v", i, err)
			}
			if err := f.Close(); err != nil {
				t.Errorf("close %d: %v", i, err)
			}
		}
	})
	if got := fs.Clients(); got != start {
		t.Fatalf("%d clients registered after 100 open/close rounds, want %d", got, start)
	}
}

func TestResolveAccessDefaultView(t *testing.T) {
	single(t, func(f *File, _ *pfs.FileSystem) {
		segs := f.ResolveAccess(100)
		want := []datatype.Seg{{Off: 0, Len: 100}}
		if !reflect.DeepEqual(segs, want) {
			t.Errorf("segs = %v, want %v", segs, want)
		}
	})
}

func TestResolveAccessStridedView(t *testing.T) {
	single(t, func(f *File, _ *pfs.FileSystem) {
		ft := datatype.Must(datatype.Resized(datatype.Bytes(4), 16))
		if err := f.SetView(100, datatype.Bytes(1), ft); err != nil {
			t.Fatal(err)
		}
		segs := f.ResolveAccess(10) // 2.5 filetype instances
		want := []datatype.Seg{{Off: 100, Len: 4}, {Off: 116, Len: 4}, {Off: 132, Len: 2}}
		if !reflect.DeepEqual(segs, want) {
			t.Errorf("segs = %v, want %v", segs, want)
		}
	})
}

func TestAccessBounds(t *testing.T) {
	single(t, func(f *File, _ *pfs.FileSystem) {
		ft := datatype.Must(datatype.Resized(datatype.Bytes(4), 16))
		f.SetView(100, datatype.Bytes(1), ft)
		for _, tc := range []struct {
			n      int64
			st, en int64
		}{
			{0, 100, 100},
			{4, 100, 104},  // one full instance
			{6, 100, 118},  // 1.5 instances
			{8, 100, 120},  // two full instances
			{10, 100, 134}, // 2.5 instances
		} {
			st, en := f.AccessBounds(tc.n)
			if st != tc.st || en != tc.en {
				t.Errorf("bounds(%d) = [%d,%d), want [%d,%d)", tc.n, st, en, tc.st, tc.en)
			}
		}
	})
}

func roundTrip(t *testing.T, m Method) {
	t.Helper()
	cfg := sim.DefaultConfig()
	w := mpi.NewWorld(1, cfg)
	fs := pfs.NewFileSystem(cfg)
	w.Run(func(p *mpi.Proc) {
		f, err := Open(p, fs, "rt.dat", Info{IndepMethod: m, SieveBufSize: 64})
		if err != nil {
			t.Error(err)
			return
		}
		// Noncontiguous in memory AND file: 8-byte regions every 24
		// bytes in memory; 8-byte regions every 32 bytes in file.
		mt := datatype.Must(datatype.Resized(datatype.Bytes(8), 24))
		ft := datatype.Must(datatype.Resized(datatype.Bytes(8), 32))
		if err := f.SetView(16, datatype.Bytes(1), ft); err != nil {
			t.Error(err)
			return
		}
		buf := make([]byte, 24*16)
		for i := range buf {
			buf[i] = byte(i % 253)
		}
		if err := f.WriteIndependent(buf, mt, 16); err != nil {
			t.Errorf("%v write: %v", m, err)
			return
		}
		out := make([]byte, len(buf))
		if err := f.ReadIndependent(out, mt, 16); err != nil {
			t.Errorf("%v read: %v", m, err)
			return
		}
		// Compare only the data bytes the memtype touches.
		want, _ := datatype.Pack(buf, mt, 0, 16)
		got, _ := datatype.Pack(out, mt, 0, 16)
		if !bytes.Equal(want, got) {
			t.Errorf("%v round trip mismatch", m)
		}
		f.Close()
	})
	// Cross-check the file image against a directly computed reference.
	img := fs.Snapshot("rt.dat", 16+32*16)
	for i := 0; i < 16; i++ { // instance i: file [16+32i, +8) = mem [24i, +8)
		fileOff := 16 + 32*i
		memOff := 24 * i
		for b := 0; b < 8; b++ {
			if img[fileOff+b] != byte((memOff+b)%253) {
				t.Fatalf("%v: file byte %d = %d, want %d", m, fileOff+b, img[fileOff+b], byte((memOff+b)%253))
			}
		}
	}
}

func TestRoundTripDataSieve(t *testing.T) { roundTrip(t, DataSieve) }
func TestRoundTripNaive(t *testing.T)     { roundTrip(t, Naive) }
func TestRoundTripListIO(t *testing.T)    { roundTrip(t, ListIO) }

func TestSieveWindowSplitStraddle(t *testing.T) {
	// A segment straddling the sieve window boundary must be split, and
	// the data must still land correctly.
	cfg := sim.DefaultConfig()
	w := mpi.NewWorld(1, cfg)
	fs := pfs.NewFileSystem(cfg)
	w.Run(func(p *mpi.Proc) {
		f, _ := Open(p, fs, "straddle.dat", Info{IndepMethod: DataSieve, SieveBufSize: 100})
		data := make([]byte, 300)
		for i := range data {
			data[i] = byte(i)
		}
		segs := []datatype.Seg{{Off: 50, Len: 20}, {Off: 120, Len: 280}}
		if err := f.WriteStream(segs, pfs.Bytes(data), DataSieve); err != nil {
			t.Error(err)
		}
		f.Close()
	})
	img := fs.Snapshot("straddle.dat", 400)
	for i := 0; i < 20; i++ {
		if img[50+i] != byte(i) {
			t.Fatalf("seg1 byte %d wrong", i)
		}
	}
	for i := 0; i < 280; i++ {
		if img[120+i] != byte(20+i) {
			t.Fatalf("seg2 byte %d = %d, want %d", i, img[120+i], byte(20+i))
		}
	}
}

// TestSieveWindowsContainedSegments: an offset-sorted list may overlap (one
// rank's region containing another's). Under data sieving a window's span
// reaches the furthest segment end, later segments win where they overlap, and
// a containing segment cut at a window edge leaves no contained segment
// behind the cut. Each list is written, then read back through the same list.
func TestSieveWindowsContainedSegments(t *testing.T) {
	for _, tc := range []struct {
		name  string
		sieve int64
		segs  []datatype.Seg
	}{
		{"one-window", 0, []datatype.Seg{{Off: 0, Len: 100}, {Off: 50, Len: 10}}},
		// Windows of 40 bytes: [30,50) crosses the first edge inside [0,100),
		// [60,70) sits inside the second window's part of it, and [120,130)
		// starts a window of its own.
		{"across-edges", 40, []datatype.Seg{{Off: 0, Len: 100}, {Off: 30, Len: 20}, {Off: 60, Len: 10}, {Off: 120, Len: 10}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var data []byte
			want := make([]byte, 130)
			for _, s := range tc.segs {
				for k := int64(0); k < s.Len; k++ {
					b := byte(len(data) + 1)
					data = append(data, b)
					want[s.Off+k] = b
				}
			}
			var back []byte
			for _, s := range tc.segs {
				back = append(back, want[s.Off:s.End()]...)
			}
			cfg := sim.DefaultConfig()
			w := mpi.NewWorld(1, cfg)
			fs := pfs.NewFileSystem(cfg)
			w.Run(func(p *mpi.Proc) {
				f, _ := Open(p, fs, "contain.dat", Info{SieveBufSize: tc.sieve})
				defer f.Close()
				if err := f.WriteStream(tc.segs, pfs.Bytes(data), DataSieve); err != nil {
					t.Errorf("write: %v", err)
					return
				}
				got := make([]byte, len(data))
				if err := f.ReadStream(tc.segs, got, DataSieve); err != nil {
					t.Errorf("read: %v", err)
				} else if !bytes.Equal(got, back) {
					t.Errorf("read back %v, want %v", got, back)
				}
			})
			if img := fs.Snapshot("contain.dat", int64(len(want))); !bytes.Equal(img, want) {
				t.Errorf("image %v, want %v", img, want)
			}
		})
	}
}

func TestWriteStreamMismatch(t *testing.T) {
	single(t, func(f *File, _ *pfs.FileSystem) {
		if err := f.WriteStream([]datatype.Seg{{Off: 0, Len: 4}}, pfs.Bytes([]byte("toolong")), Naive); err == nil {
			t.Error("length mismatch accepted")
		}
		if err := f.ReadStream([]datatype.Seg{{Off: 0, Len: 4}}, make([]byte, 2), Naive); err == nil {
			t.Error("read length mismatch accepted")
		}
	})
}

func TestCheckAccessValidation(t *testing.T) {
	single(t, func(f *File, _ *pfs.FileSystem) {
		if err := f.WriteAll(make([]byte, 4), nil, 1); err == nil {
			t.Error("nil memtype accepted")
		}
		if err := f.WriteAll(make([]byte, 4), datatype.Bytes(4), -1); err == nil {
			t.Error("negative count accepted")
		}
		if err := f.WriteAll(make([]byte, 4), datatype.Bytes(8), 1); err == nil {
			t.Error("short buffer accepted")
		}
		// extent*count wraps past int64: the check must not multiply.
		huge := datatype.Must(datatype.Resized(datatype.Bytes(1), 1<<40))
		if err := f.WriteAll(make([]byte, 64), huge, 1<<24); err == nil {
			t.Error("buffer far too small for an overflowing extent*count accepted")
		}
	})
}

func TestCollectiveFallsBackToIndependent(t *testing.T) {
	single(t, func(f *File, fs *pfs.FileSystem) {
		data := []byte("collective-less")
		if err := f.WriteAll(data, datatype.Bytes(int64(len(data))), 1); err != nil {
			t.Error(err)
		}
		out := make([]byte, len(data))
		if err := f.ReadAll(out, datatype.Bytes(int64(len(data))), 1); err != nil {
			t.Error(err)
		}
		if !bytes.Equal(out, data) {
			t.Errorf("read %q", out)
		}
	})
}

func TestMethodCostOrdering(t *testing.T) {
	// For a dense small-piece pattern, data sieving must beat naive; for
	// a sparse large-extent pattern, naive must beat sieving. This is
	// the crossover Figure 5 sweeps.
	cost := func(m Method, pieceLen, stride int64, n int) sim.Time {
		cfg := sim.DefaultConfig()
		w := mpi.NewWorld(1, cfg)
		fs := pfs.NewFileSystem(cfg)
		var elapsed sim.Time
		w.Run(func(p *mpi.Proc) {
			f, _ := Open(p, fs, "cost.dat", Info{})
			segs := make([]datatype.Seg, n)
			var total int64
			for i := range segs {
				segs[i] = datatype.Seg{Off: int64(i) * stride, Len: pieceLen}
				total += pieceLen
			}
			start := p.Clock()
			if err := f.WriteStream(segs, pfs.Bytes(make([]byte, total)), m); err != nil {
				t.Error(err)
			}
			elapsed = p.Clock() - start
			f.Close()
		})
		return elapsed
	}
	// Dense: 64-byte pieces every 128 bytes.
	if ds, nv := cost(DataSieve, 64, 128, 512), cost(Naive, 64, 128, 512); !(ds < nv) {
		t.Errorf("dense: sieve %v not faster than naive %v", ds, nv)
	}
	// Sparse: 4KB pieces every 128KB.
	if ds, nv := cost(DataSieve, 4096, 128<<10, 64), cost(Naive, 4096, 128<<10, 64); !(nv < ds) {
		t.Errorf("sparse: naive %v not faster than sieve %v", nv, ds)
	}
	// List I/O beats naive on many small pieces (call overhead amortized).
	if li, nv := cost(ListIO, 64, 4096, 512), cost(Naive, 64, 4096, 512); !(li < nv) {
		t.Errorf("small pieces: listio %v not faster than naive %v", li, nv)
	}
}

func TestPFRStateRoundTrip(t *testing.T) {
	single(t, func(f *File, _ *pfs.FileSystem) {
		if f.PFR() != nil {
			t.Error("fresh file has PFR state")
		}
	})
}

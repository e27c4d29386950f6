package main

import (
	"fmt"
	"io"
	"time"

	"flexio/internal/bufpool"
	"flexio/internal/datatype"
	"flexio/internal/integrity"
	"flexio/internal/metrics"
	"flexio/internal/mpi"
	"flexio/internal/mpiio"
	"flexio/internal/pfs"
	"flexio/internal/realm"
	"flexio/internal/sim"
)

// isoTiming is one isolated host timing of a layer's public functions on
// fixed inputs. setup builds the inputs from the seed and returns batch,
// which does n units of the work; units is how many of the metric's units
// one batch unit holds (segments per flatten, bytes per pack, ...).
type isoTiming struct {
	metricDef
	units float64
	// perSecond reports millions of units per second (MB/s for bytes)
	// instead of time per unit.
	perSecond bool
	scale     float64 // nanoseconds in the reported unit of time (1 = ns, 1e3 = us)
	setup     func(seed int64) (batch func(n int))
}

// isoBudget is the host time one batch aims for; every timing runs three
// batches and reports the median.
const isoBudget = 15 * time.Millisecond

// runIsolated times every isolated layer function, one benchmark-side span
// each under a shared parent.
func runIsolated(seed int64, quick bool, sp *spanLog) map[string]float64 {
	out := make(map[string]float64, len(isolated))
	root := sp.begin("layers", 0, "", 0)
	defer sp.end(root)
	for _, t := range isolated {
		id := sp.child(t.name, root)
		batch := t.setup(seed)
		n := 1
		if !quick {
			// Grow the batch until it fills the budget.
			for {
				t0 := time.Now()
				batch(n)
				if d := time.Since(t0); d >= isoBudget/2 || n >= 1<<24 {
					break
				} else if d < isoBudget/16 {
					n *= 8
				} else {
					n *= 2
				}
			}
		}
		var runs []float64
		for i := 0; i < 3; i++ {
			t0 := time.Now()
			batch(n)
			runs = append(runs, float64(time.Since(t0))/(float64(n)*t.units))
			if quick {
				break
			}
		}
		perUnit := median(runs) // nanoseconds
		if t.perSecond {
			out[t.name] = 1e9 / perUnit / 1e6
		} else {
			out[t.name] = perUnit / t.scale
		}
		sp.end(id)
	}
	return out
}

func must(err error) {
	if err != nil {
		panic(fmt.Sprintf("isolated timing: %v", err))
	}
}

// keep holds results so the compiler cannot drop the timed calls.
var keep int64

// stridedSegs is count segments of length bytes, one every stride bytes
// from start.
func stridedSegs(start, length, stride int64, count int) []datatype.Seg {
	segs := make([]datatype.Seg, count)
	for i := range segs {
		segs[i] = datatype.Seg{Off: start + int64(i)*stride, Len: length}
	}
	return segs
}

func randomBytes(seed int64, stream uint64, n int) []byte {
	b := make([]byte, n)
	newRNG(seed, stream).fill(b)
	return b
}

// inWorld runs body on every rank of a fresh p-rank world as one World.Run.
func inWorld(p int, body func(pr *mpi.Proc)) {
	w := mpi.NewWorld(p, sim.DefaultConfig())
	w.SetNodeMap(mpi.BlockNodeMap(nodeRanks))
	w.Run(body)
}

// sieveHoles is the sieve window the pfs and mpiio timings share: a 64 KiB
// span holding 128 useful pieces of 256 B with 256 B holes between them.
const (
	holeSpan   = 64 << 10
	holePieces = 128
	holeLen    = 256
)

func ns(name, moves string, units float64, setup func(int64) func(int)) isoTiming {
	return isoTiming{metricDef: metricDef{name, "ns", "lower", moves}, units: units, scale: 1, setup: setup}
}

func us(name, moves string, setup func(int64) func(int)) isoTiming {
	return isoTiming{metricDef: metricDef{name, "us", "lower", moves}, units: 1, scale: 1e3, setup: setup}
}

func mbps(name, moves string, bytes float64, setup func(int64) func(int)) isoTiming {
	return isoTiming{metricDef: metricDef{name, "MB/s", "higher", moves}, units: bytes, perSecond: true, setup: setup}
}

// indep times one independent noncontiguous write of the sieveHoles window
// through mpiio with the given access method.
func indep(m mpiio.Method) func(int64) func(int) {
	return func(seed int64) func(int) {
		data := randomBytes(seed, 40, holePieces*holeLen)
		ft := datatype.Must(datatype.Resized(datatype.Bytes(holeLen), 2*holeLen))
		return func(n int) {
			fs := pfs.NewFileSystem(sim.DefaultConfig())
			inWorld(1, func(p *mpi.Proc) {
				f, err := mpiio.Open(p, fs, "indep.dat", mpiio.Info{IndepMethod: m})
				must(err)
				must(f.SetView(0, datatype.Bytes(1), ft))
				for i := 0; i < n; i++ {
					must(f.WriteIndependent(data, datatype.Bytes(holeLen), holePieces))
				}
				must(f.Close())
			})
		}
	}
}

// pfsHandle opens one client's handle on a fresh file system.
func pfsHandle() *pfs.Handle {
	return pfs.NewFileSystem(sim.DefaultConfig()).NewClient(nil).Open("iso.dat")
}

// isolated is the list of isolated host timings, in the order they print.
var isolated = []isoTiming{
	ns("datatype.flatten_ns_per_seg", movesLayout, 1024, func(int64) func(int) {
		return func(n int) {
			for i := 0; i < n; i++ {
				t := datatype.Must(datatype.Vector(1024, 2, 64, datatype.Bytes(16)))
				keep += int64(len(t.Flatten()))
			}
		}
	}),
	ns("datatype.cursor_next_ns_per_seg", movesLayout, 1024*16, func(int64) func(int) {
		t := datatype.Must(datatype.Vector(1024, 2, 64, datatype.Bytes(16)))
		return func(n int) {
			for i := 0; i < n; i++ {
				cur := datatype.NewCursor(t, 0, 16)
				for {
					s, _, ok := cur.Next(1 << 30)
					if !ok {
						break
					}
					keep += s.Len
				}
			}
		}
	}),
	ns("datatype.cursor_seek_ns", movesLayout, 1024, func(int64) func(int) {
		// A succinct tiled type: every seek skips whole instances.
		t := datatype.Must(datatype.Resized(datatype.Bytes(512), 6144))
		return func(n int) {
			for i := 0; i < n; i++ {
				cur := datatype.NewCursor(t, 0, -1)
				for k := int64(1); k <= 1024; k++ {
					cur.SeekOffset(k * 1000003)
				}
				keep += cur.Offset()
			}
		}
	}),
	ns("datatype.codec_ns_per_seg", movesRequest, 256, func(int64) func(int) {
		lens, displs := make([]int64, 256), make([]int64, 256)
		for i := range lens {
			lens[i], displs[i] = 1, int64(i)*96
		}
		f := datatype.FlatOf(datatype.Must(datatype.HIndexed(lens, displs, datatype.Bytes(32))), 4096, 64)
		return func(n int) {
			for i := 0; i < n; i++ {
				back, err := datatype.DecodeFlat(f.Encode())
				must(err)
				keep += int64(len(back.Segs))
			}
		}
	}),
	func() isoTiming {
		inner := datatype.Must(datatype.Vector(8, 2, 64, datatype.Bytes(16)))
		mid := datatype.Must(datatype.Vector(16, 1, 1024, inner))
		tree := datatype.Tree(datatype.Must(datatype.Resized(mid, 1<<16)))
		var count func(datatype.Node) int
		count = func(nd datatype.Node) int {
			c := 1
			for _, ch := range nd.Children {
				c += count(ch)
			}
			return c
		}
		return ns("datatype.tree_codec_ns_per_node", movesRequest, float64(count(tree)), func(int64) func(int) {
			return func(n int) {
				for i := 0; i < n; i++ {
					back, err := datatype.DecodeNode(tree.Encode())
					must(err)
					keep += back.A
				}
			}
		})
	}(),
	mbps("datatype.pack_mb_per_s", movesLayout, 1<<20, func(seed int64) func(int) {
		mt := datatype.Must(datatype.Resized(datatype.Bytes(512), 576))
		buf := randomBytes(seed, 10, 576*2048)
		dst := make([]byte, 0, 1<<20)
		return func(n int) {
			for i := 0; i < n; i++ {
				out, err := datatype.AppendPack(dst[:0], buf, mt, 0, 2048)
				must(err)
				keep += int64(len(out))
			}
		}
	}),
	mbps("datatype.unpack_mb_per_s", movesPfsRead, 1<<20, func(seed int64) func(int) {
		mt := datatype.Must(datatype.Resized(datatype.Bytes(512), 576))
		stream := randomBytes(seed, 11, 1<<20)
		buf := make([]byte, 576*2048)
		return func(n int) {
			for i := 0; i < n; i++ {
				must(datatype.Unpack(stream, buf, mt, 0, 2048))
			}
		}
	}),
	ns("datatype.mergeplan_ns_per_item", movesRequest, 8*512, func(int64) func(int) {
		// Eight participants whose 512 runs interleave in the file.
		parts := make([][]datatype.Seg, 8)
		for p := range parts {
			parts[p] = stridedSegs(int64(p)*64, 64, 8*64, 512)
		}
		var items []datatype.MergeItem
		var merged []datatype.Seg
		return func(n int) {
			for i := 0; i < n; i++ {
				items = items[:0]
				for p, segs := range parts {
					items = datatype.AppendSegRuns(items, segs, p)
				}
				var total int64
				items, merged, total = datatype.BuildMergePlan(items, merged)
				keep += total
			}
		}
	}),

	ns("realm.even_assign_ns", movesLayout, 1, func(int64) func(int) {
		ctx := realm.Context{NAggs: 8, Start: 4096, End: 1 << 30, Align: 2 << 20}
		return func(n int) {
			for i := 0; i < n; i++ {
				r, err := realm.Even{Align: ctx.Align}.Assign(ctx)
				must(err)
				keep += int64(len(r))
			}
		}
	}),
	ns("realm.loadbalanced_assign_ns_per_seg", movesLayout, 8192, func(int64) func(int) {
		ctx := realm.Context{NAggs: 8, Start: 0, End: 8192 * 768, AllSegs: stridedSegs(0, 512, 768, 8192)}
		return func(n int) {
			for i := 0; i < n; i++ {
				r, err := realm.LoadBalanced{}.Assign(ctx)
				must(err)
				keep += int64(len(r))
			}
		}
	}),
	ns("realm.nodelocal_assign_ns_per_seg", movesLayout, 16*512, func(int64) func(int) {
		ctx := realm.Context{NAggs: 8, Start: 0, End: 16 * 512 * 768, NodeOf: mpi.BlockNodeMap(nodeRanks)}
		for r := 0; r < 16; r++ {
			ctx.RankSegs = append(ctx.RankSegs, stridedSegs(int64(r)*768, 512, 16*768, 512))
		}
		ctx.AllSegs = stridedSegs(0, 512, 768, 16*512)
		return func(n int) {
			for i := 0; i < n; i++ {
				r, err := realm.NodeLocal{}.Assign(ctx)
				must(err)
				keep += int64(len(r))
			}
		}
	}),

	us("mpi.run_spawn_us", "host_us_per_op everywhere: the floor under every op", func(int64) func(int) {
		w := mpi.NewWorld(16, sim.DefaultConfig())
		return func(n int) {
			for i := 0; i < n; i++ {
				w.Run(func(*mpi.Proc) {})
			}
		}
	}),
	ns("mpi.sendrecv_ns_per_msg", movesNet, 2, func(seed int64) func(int) {
		msg := randomBytes(seed, 20, 64)
		return func(n int) {
			inWorld(2, func(p *mpi.Proc) {
				peer := 1 - p.Rank()
				for i := 0; i < n; i++ {
					if p.Rank() == 0 {
						p.Send(peer, 7, msg)
						p.Recv(peer, 7)
					} else {
						p.Recv(peer, 7)
						p.Send(peer, 7, msg)
					}
				}
			})
		}
	}),
	us("mpi.barrier_us", movesNet, func(int64) func(int) {
		return func(n int) {
			inWorld(16, func(p *mpi.Proc) {
				for i := 0; i < n; i++ {
					p.Barrier()
				}
			})
		}
	}),
	us("mpi.allgather_us", movesNet, func(seed int64) func(int) {
		msg := randomBytes(seed, 21, 64)
		return func(n int) {
			inWorld(16, func(p *mpi.Proc) {
				for i := 0; i < n; i++ {
					p.Allgather(msg)
				}
			})
		}
	}),
	us("mpi.alltoallv_us", movesNet, func(seed int64) func(int) {
		cell := randomBytes(seed, 22, 1024)
		return func(n int) {
			inWorld(16, func(p *mpi.Proc) {
				send := make([][]byte, p.Size())
				for d := range send {
					send[d] = cell
				}
				for i := 0; i < n; i++ {
					p.Alltoallv(send)
				}
			})
		}
	}),
	us("mpi.alltoallv_iov_us", movesNet, func(seed int64) func(int) {
		cell := randomBytes(seed, 23, 4096)
		return func(n int) {
			inWorld(8, func(p *mpi.Proc) {
				send := make([][][]byte, p.Size())
				for d := range send {
					send[d] = [][]byte{cell[:1024], cell[1024:2048], cell[2048:3072], cell[3072:]}
				}
				for i := 0; i < n; i++ {
					p.AlltoallvIov(send)
				}
			})
		}
	}),

	mbps("pfs.write_contig_mb_per_s", movesPfsHost, 1<<20, func(seed int64) func(int) {
		data := randomBytes(seed, 30, 1<<20)
		h := pfsHandle()
		var now sim.Time
		return func(n int) {
			for i := 0; i < n; i++ {
				var err error
				now, err = h.WriteAt(int64(i%16)<<20, data, now)
				must(err)
			}
		}
	}),
	mbps("pfs.read_cached_mb_per_s", movesPfsRead, 1<<20, func(seed int64) func(int) {
		data := randomBytes(seed, 31, 1<<20)
		h := pfsHandle()
		var now sim.Time
		for i := int64(0); i < 8; i++ {
			var err error
			now, err = h.WriteAt(i<<20, data, now)
			must(err)
		}
		buf := make([]byte, 1<<20)
		return func(n int) {
			for i := 0; i < n; i++ {
				var err error
				now, err = h.ReadAt(int64(i%8)<<20, buf, now)
				must(err)
			}
		}
	}),
	us("pfs.sieve_write_us_per_call", movesPfsHost, func(seed int64) func(int) {
		data := randomBytes(seed, 32, holePieces*holeLen)
		segs := stridedSegs(0, holeLen, 2*holeLen, holePieces)
		h := pfsHandle()
		var now sim.Time
		return func(n int) {
			for i := 0; i < n; i++ {
				var err error
				now, err = h.SieveWrite(datatype.Seg{Off: 0, Len: holeSpan}, segs, data, now)
				must(err)
			}
		}
	}),
	us("pfs.sieve_read_us_per_call", movesPfsRead, func(seed int64) func(int) {
		segs := stridedSegs(0, holeLen, 2*holeLen, holePieces)
		h := pfsHandle()
		now, err := h.WriteAt(0, randomBytes(seed, 33, holeSpan), 0)
		must(err)
		buf := make([]byte, holePieces*holeLen)
		return func(n int) {
			for i := 0; i < n; i++ {
				now, err = h.SieveRead(datatype.Seg{Off: 0, Len: holeSpan}, segs, buf, now)
				must(err)
			}
		}
	}),
	ns("pfs.write_list_ns_per_seg", movesPfsHost, holePieces, func(seed int64) func(int) {
		data := randomBytes(seed, 34, holePieces*holeLen)
		segs := stridedSegs(0, holeLen, 2*holeLen, holePieces)
		h := pfsHandle()
		var now sim.Time
		return func(n int) {
			for i := 0; i < n; i++ {
				var err error
				now, err = h.WriteList(segs, data, now)
				must(err)
			}
		}
	}),
	us("pfs.lock_pingpong_us", movesPfsHost, func(seed int64) func(int) {
		// Two clients alternate on one page: every write revokes the
		// other's lock and flushes its cached page.
		data := randomBytes(seed, 35, 512)
		fs := pfs.NewFileSystem(sim.DefaultConfig())
		hs := [2]*pfs.Handle{fs.NewClient(nil).Open("iso.dat"), fs.NewClient(nil).Open("iso.dat")}
		var now sim.Time
		return func(n int) {
			for i := 0; i < n; i++ {
				var err error
				now, err = hs[i%2].WriteAt(int64(i%2)*512, data, now)
				must(err)
			}
		}
	}),

	us("mpiio.indep_sieve_us_per_call", movesPfsHost, indep(mpiio.DataSieve)),
	us("mpiio.indep_naive_us_per_call", movesPfsHost, indep(mpiio.Naive)),
	us("mpiio.indep_listio_us_per_call", movesPfsHost, indep(mpiio.ListIO)),
	us("mpiio.open_close_us", "setup_s everywhere, most on ckpt-write where every rollover reopens", func(int64) func(int) {
		return func(n int) {
			fs := pfs.NewFileSystem(sim.DefaultConfig())
			inWorld(4, func(p *mpi.Proc) {
				for i := 0; i < n; i++ {
					f, err := mpiio.Open(p, fs, "open.dat", mpiio.Info{})
					must(err)
					must(f.Close())
				}
			})
		}
	}),

	mbps("integrity.hash_mb_per_s", movesIntegrity, 64<<10, func(seed int64) func(int) {
		block := randomBytes(seed, 50, 64<<10)
		h := integrity.NewHasher(seed)
		return func(n int) {
			for i := 0; i < n; i++ {
				keep += int64(h.Sum(block))
			}
		}
	}),
	ns("integrity.record_ns_per_block", movesIntegrity, 1, func(seed int64) func(int) {
		block := randomBytes(seed, 51, 4096)
		st := integrity.NewStore(integrity.NewHasher(seed), 0)
		return func(n int) {
			for i := 0; i < n; i++ {
				st.Record("iso.dat", int64(i%256), block, 0, 4096)
			}
		}
	}),
	ns("integrity.verify_ns_per_block", movesIntegrity, 1, func(seed int64) func(int) {
		block := randomBytes(seed, 52, 4096)
		st := integrity.NewStore(integrity.NewHasher(seed), 0)
		for i := int64(0); i < 256; i++ {
			st.Record("iso.dat", i, block, 0, 4096)
		}
		return func(n int) {
			for i := 0; i < n; i++ {
				if !st.Verify("iso.dat", int64(i%256), block) {
					panic("isolated timing: a clean block failed its checksum")
				}
			}
		}
	}),

	ns("bufpool.getput_ns", movesPool, 1, func(int64) func(int) {
		return func(n int) {
			for i := 0; i < n; i++ {
				bufpool.Put(bufpool.Get(64 << 10))
			}
		}
	}),

	ns("metrics.add_ns", movesNothing, 1, func(int64) func(int) {
		reg := metrics.NewSet(1).Registry(0)
		return func(n int) {
			for i := 0; i < n; i++ {
				reg.Add(metrics.CIOBytes, 1)
			}
		}
	}),
	us("metrics.exposition_us", movesNothing, func(int64) func(int) {
		set := metrics.NewSet(16)
		for r := 0; r < 16; r++ {
			set.Registry(r).Add(metrics.CIOBytes, int64(r+1))
			set.Registry(r).ObservePhase("io", sim.Time(r+1)*1e-3)
		}
		return func(n int) {
			for i := 0; i < n; i++ {
				must(set.WriteProm(io.Discard))
			}
		}
	}),
}

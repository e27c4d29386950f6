package pfs

import (
	"bytes"
	"errors"
	"testing"

	"flexio/internal/datatype"
	"flexio/internal/metrics"
	"flexio/internal/sim"
)

func faultFS(t *testing.T) (*FileSystem, *Client, *metrics.Registry) {
	t.Helper()
	cfg := sim.DefaultConfig()
	fs := NewFileSystem(cfg)
	rec := metrics.NewRegistry(0)
	return fs, fs.NewClient(rec), rec
}

func TestSentinelClassification(t *testing.T) {
	pe := &PartialError{Written: 7}
	if !errors.Is(pe, ErrPartial) {
		t.Error("PartialError does not match ErrPartial")
	}
	for _, tc := range []struct {
		err  error
		want Class
	}{
		{nil, ClassNone},
		{ErrTransient, ClassTransient},
		{pe, ClassPartial},
		{ErrIO, ClassIO},
		{errors.New("mystery"), ClassIO}, // unknown errors count as hard
	} {
		if got := classifyErr(tc.err); got != tc.want {
			t.Errorf("classifyErr(%v) = %v, want %v", tc.err, got, tc.want)
		}
	}
}

func TestFaultCoinDeterministic(t *testing.T) {
	op := Op{Kind: "write", Off: 4096, Len: 128, Seq: 3}
	a := flipCoin(42, 0, op)
	if b := flipCoin(42, 0, op); a != b {
		t.Errorf("same inputs, different coins: %#x vs %#x", a, b)
	}
	if b := flipCoin(43, 0, op); a == b {
		t.Error("different seeds produced the same coin")
	}
	if b := flipCoin(42, 1, op); a == b {
		t.Error("different rules produced the same coin")
	}
	// Client id must not influence the coin: ids are assigned in Open
	// order, which goroutine scheduling can permute.
	op2 := op
	op2.Client = 99
	if b := flipCoin(42, 0, op2); a != b {
		t.Error("client id influenced the coin")
	}

	// Pinned values: every seeded schedule damages the bits these pick, so a
	// change to the chain changes every recorded at-rest fault.
	for _, tc := range []struct {
		op   Op
		want uint64
	}{
		{op, 0x35ec6a1feca78f6},
		{Op{Kind: "write", Off: 0, Len: 1, Seq: 1, Round: -1}, 0x475ef8271c0be6ba},
		{Op{Kind: "write", Off: 1 << 20, Len: 65536, Seq: 17, Round: 2}, 0xce5a5e104b57ffa7},
	} {
		if got := flipCoin(42, 0, tc.op); got != tc.want {
			t.Errorf("flipCoin(42, 0, %+v) = %#x, want %#x", tc.op, got, tc.want)
		}
	}

	// The bit a bitflip rule damages in one 256-byte write. A request rule
	// filed first must not shift the at-rest rule off index 0 of its list.
	for _, tc := range []struct {
		seed int64
		bit  int
	}{{42, 1065}, {7, 1296}} {
		fs, c, _ := faultFS(t)
		fs.SetFaultSchedule(NewFaultSchedule(tc.seed).
			Add(Rule{Kind: "read", Class: ClassTransient}).
			Add(Rule{Class: ClassBitflip}))
		data := make([]byte, 256)
		for i := range data {
			data[i] = byte(i)
		}
		if _, err := c.Open("f").WriteAt(0, data, 0); err != nil {
			t.Fatal(err)
		}
		want := append([]byte{}, data...)
		want[tc.bit/8] ^= 1 << (tc.bit % 8)
		if got := fs.Snapshot("f", 256); !bytes.Equal(got, want) {
			t.Errorf("seed %d: stored image is not the write with bit %d flipped", tc.seed, tc.bit)
		}
	}
}

// TestFaultRuleClassPicksPlane: a rule's class alone decides whether it
// fails requests or damages what they store.
func TestFaultRuleClassPicksPlane(t *testing.T) {
	data := bytes.Repeat([]byte{0xA5}, 256)
	t.Run("at-rest", func(t *testing.T) {
		fs, c, _ := faultFS(t)
		sched := NewFaultSchedule(7).Add(Rule{Class: ClassBitflip})
		atAdmit := int64(-1)
		sched.WithHook(func(Op) error { atAdmit = sched.Injected(); return nil })
		fs.SetFaultSchedule(sched)
		if _, err := c.Open("f").WriteAt(0, data, 0); err != nil {
			t.Fatalf("a bitflip rule failed the request: %v", err)
		}
		if atAdmit != 0 || sched.Injected() != 1 {
			t.Errorf("Injected() = %d at admission and %d after the write, want 0 and 1", atAdmit, sched.Injected())
		}
		if bytes.Equal(fs.Snapshot("f", 256), data) {
			t.Error("the flip did not land")
		}
	})
	t.Run("request", func(t *testing.T) {
		fs, c, _ := faultFS(t)
		sched := NewFaultSchedule(7).Add(Rule{Class: ClassIO, Count: 1})
		fs.SetFaultSchedule(sched)
		h := c.Open("f")
		if _, err := h.WriteAt(0, data, 0); !errors.Is(err, ErrIO) {
			t.Fatalf("first write: want ErrIO, got %v", err)
		}
		if _, err := h.WriteAt(0, data, 0); err != nil {
			t.Fatalf("second write past the count: %v", err)
		}
		if !bytes.Equal(fs.Snapshot("f", 256), data) {
			t.Error("an io rule damaged the bytes of the write it let through")
		}
		if sched.Injected() != 1 {
			t.Errorf("Injected() = %d, want 1", sched.Injected())
		}
	})
}

func TestRulePerClientCount(t *testing.T) {
	fs, c1, _ := faultFS(t)
	c2 := fs.NewClient(metrics.NewRegistry(0))
	sched := NewFaultSchedule(1).Add(Rule{Kind: "write", Class: ClassTransient, Count: 2})
	fs.SetFaultSchedule(sched)
	h1, h2 := c1.Open("a.dat"), c2.Open("a.dat")
	fails := func(h *Handle) int {
		n := 0
		var now sim.Time
		for i := 0; i < 5; i++ {
			done, err := h.WriteAt(int64(i)*100, make([]byte, 10), now)
			if err != nil {
				if !errors.Is(err, ErrTransient) {
					t.Fatalf("unexpected error class: %v", err)
				}
				n++
			}
			now = done
		}
		return n
	}
	if got := fails(h1); got != 2 {
		t.Errorf("client 1: %d injections, want 2 (per-client cap)", got)
	}
	if got := fails(h2); got != 2 {
		t.Errorf("client 2: %d injections, want 2 (per-client cap)", got)
	}
	if got := sched.Injected(); got != 4 {
		t.Errorf("Injected() = %d, want 4", got)
	}
}

// TestPartialWriteLeavesPrefixOnly: a partial write fault lets exactly the
// reported prefix of the data land and nothing after it. Written counts data
// bytes, so a sieve window's prefix is of its useful bytes, not its span's,
// and the file then ends at the last landed byte, not at the span's end.
func TestPartialWriteLeavesPrefixOnly(t *testing.T) {
	window := []datatype.Seg{{Off: 0, Len: 100}, {Off: 400, Len: 100}, {Off: 800, Len: 100}}
	for _, tc := range []struct {
		name    string
		frac    float64
		n       int64 // data bytes
		write   func(h *Handle, data []byte) (sim.Time, error)
		written int64
		landed  []datatype.Seg
		size    int64
	}{
		{"plain", 0.25, 100, func(h *Handle, data []byte) (sim.Time, error) {
			return h.WriteAt(0, data, 0)
		}, 25, []datatype.Seg{{Off: 0, Len: 25}}, 25},
		{"sieve window", 0.5, 300, func(h *Handle, data []byte) (sim.Time, error) {
			return h.SieveWrite(datatype.Seg{Off: 0, Len: 1000}, window, data, 0)
		}, 150, []datatype.Seg{{Off: 0, Len: 100}, {Off: 400, Len: 50}}, 450},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs, c, _ := faultFS(t)
			fs.SetFaultSchedule(NewFaultSchedule(5).Add(Rule{
				Kind: "write", Class: ClassPartial, Frac: tc.frac, Count: 1,
			}))
			h := c.Open("p.dat")
			_, err := tc.write(h, bytes.Repeat([]byte{0xCD}, int(tc.n)))
			var pe *PartialError
			if !errors.As(err, &pe) {
				t.Fatalf("want PartialError, got %v", err)
			}
			if pe.Written != tc.written {
				t.Fatalf("Written = %d, want %d", pe.Written, tc.written)
			}
			if got := fs.Size("p.dat"); got != tc.size {
				t.Errorf("size %d, want %d (the end of the last landed byte)", got, tc.size)
			}
			for i, b := range fs.Snapshot("p.dat", 1000) {
				in := false
				for _, s := range tc.landed {
					in = in || int64(i) >= s.Off && int64(i) < s.End()
				}
				if in != (b == 0xCD) {
					t.Fatalf("byte %d written: %v, inside the landed prefix: %v", i, b == 0xCD, in)
				}
			}
		})
	}
}

func TestHookMayCallBackIntoFileSystem(t *testing.T) {
	// The fault hook runs without fs.mu held, so it may inspect the file
	// system. Under the old implementation this deadlocked.
	fs, c, _ := faultFS(t)
	h := c.Open("r.dat")
	if _, err := h.WriteAt(0, make([]byte, 64), 0); err != nil {
		t.Fatal(err)
	}
	var sawSize int64 = -1
	fs.SetFaultSchedule(NewFaultSchedule(0).WithHook(func(op Op) error {
		sawSize = fs.Size("r.dat") // reenters the FileSystem
		return nil
	}))
	if _, err := h.WriteAt(64, make([]byte, 64), 0); err != nil {
		t.Fatal(err)
	}
	if sawSize != 64 {
		t.Errorf("hook saw size %d, want 64", sawSize)
	}
}

func TestBrownoutSlowsService(t *testing.T) {
	run := func(sched *FaultSchedule) sim.Time {
		fs, c, _ := faultFS(t)
		fs.SetFaultSchedule(sched)
		h := c.Open("b.dat")
		done, err := h.WriteAt(0, make([]byte, 1<<20), 0)
		if err != nil {
			t.Fatal(err)
		}
		return done
	}
	base := run(nil)
	slow := run(NewFaultSchedule(0).AddBrownout(Brownout{OST: -1, Slowdown: 8}))
	if slow <= base {
		t.Errorf("brownout did not slow the write: base %v, brownout %v", base, slow)
	}
}

func TestBrownoutWindowRespected(t *testing.T) {
	fs, c, _ := faultFS(t)
	fs.SetFaultSchedule(NewFaultSchedule(0).AddBrownout(Brownout{
		OST: -1, From: 1000, Until: 2000, Slowdown: 8,
	}))
	h := c.Open("w.dat")
	done, err := h.WriteAt(0, make([]byte, 1<<20), 0)
	if err != nil {
		t.Fatal(err)
	}
	fs2, c2, _ := faultFS(t)
	_ = fs2
	done2, err := c2.Open("w.dat").WriteAt(0, make([]byte, 1<<20), 0)
	if err != nil {
		t.Fatal(err)
	}
	if done != done2 {
		t.Errorf("inactive brownout window changed timing: %v vs %v", done, done2)
	}
}

func TestRevokeStormCharges(t *testing.T) {
	fs, c, rec := faultFS(t)
	fs.SetFaultSchedule(NewFaultSchedule(0).AddStorm(RevokeStorm{PerGrant: 3}))
	h := c.Open("s.dat")
	done, err := h.WriteAt(0, make([]byte, 1<<20), 0)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Counter(metrics.CStormRevokes) == 0 {
		t.Error("no storm revokes counted")
	}
	fs2, c2, _ := faultFS(t)
	_ = fs2
	calm, err := c2.Open("s.dat").WriteAt(0, make([]byte, 1<<20), 0)
	if err != nil {
		t.Fatal(err)
	}
	if done <= calm {
		t.Errorf("storm did not cost virtual time: storm %v, calm %v", done, calm)
	}
}

func TestRuleSeqAndRoundTargeting(t *testing.T) {
	fs, c, rec := faultFS(t)
	fs.SetFaultSchedule(NewFaultSchedule(0).
		Add(Rule{Kind: "write", Match: func(op Op) bool { return op.Seq == 2 }, Class: ClassIO}).
		Add(Rule{Kind: "write", Rounds: []int{1}, Class: ClassTransient}))
	h := c.Open("t.dat")
	if _, err := h.WriteAt(0, make([]byte, 8), 0); err != nil { // seq 1
		t.Fatalf("seq 1 should pass: %v", err)
	}
	if _, err := h.WriteAt(8, make([]byte, 8), 0); !errors.Is(err, ErrIO) { // seq 2
		t.Fatalf("seq 2 should fail hard, got %v", err)
	}
	c.SetRound(1)
	if _, err := h.WriteAt(16, make([]byte, 8), 0); !errors.Is(err, ErrTransient) { // round 1
		t.Fatalf("round-1 write should be transient, got %v", err)
	}
	c.SetRound(-1)
	if _, err := h.WriteAt(24, make([]byte, 8), 0); err != nil {
		t.Fatalf("outside round 1 should pass: %v", err)
	}
	if rec.Counter(metrics.CFaults) != 2 {
		t.Errorf("CFaultsInjected = %d, want 2", rec.Counter(metrics.CFaults))
	}
}

func TestSieveRMWReadFaultBecomesTransient(t *testing.T) {
	// A partial fault on the RMW prefetch read inside SieveWrite must not
	// surface as ErrPartial: no user data bytes were written, so the layer
	// reports it as transient (fully retryable).
	fs, c, _ := faultFS(t)
	h := c.Open("rmw.dat")
	if _, err := h.WriteAt(0, bytes.Repeat([]byte{0xEE}, 4096), 0); err != nil {
		t.Fatal(err)
	}
	fs.SetFaultSchedule(NewFaultSchedule(3).Add(Rule{
		Kind: "read", Class: ClassPartial, Count: 1,
	}))
	// A gapped sieve window over existing data forces the RMW prefetch.
	span := datatype.Seg{Off: 0, Len: 1024}
	segs := []datatype.Seg{{Off: 0, Len: 256}, {Off: 512, Len: 256}}
	_, err := h.SieveWrite(span, segs, make([]byte, 512), 0)
	if err == nil {
		t.Fatal("RMW read fault vanished")
	}
	if !errors.Is(err, ErrTransient) || errors.Is(err, ErrPartial) {
		t.Errorf("RMW read fault should classify transient, got %v", err)
	}
}

// TestCorruptSkipsEmptySieveSegments: a sieve window may carry empty
// segments. They land no byte, so an at-rest rule skips them as a plain
// write does: no division by their zero length, no damage to the byte
// before them, and no injection spent on them.
func TestCorruptSkipsEmptySieveSegments(t *testing.T) {
	span := datatype.Seg{Off: 0, Len: 32}
	data := bytes.Repeat([]byte{0x5A}, 8)
	pristine := bytes.Repeat([]byte{0xFF}, 64)
	copy(pristine[16:24], data)
	for _, cl := range []Class{ClassBitflip, ClassTorn} {
		image := func(segs []datatype.Seg) []byte {
			fs, c, _ := faultFS(t)
			h := c.Open("f")
			if _, err := h.WriteAt(0, bytes.Repeat([]byte{0xFF}, 64), 0); err != nil {
				t.Fatal(err)
			}
			fs.SetFaultSchedule(NewFaultSchedule(7).Add(Rule{Class: cl, Count: 1}))
			if _, err := h.SieveWrite(span, segs, data, 0); err != nil {
				t.Fatalf("%v: %v", cl, err)
			}
			return fs.Snapshot("f", 64)
		}
		got := image([]datatype.Seg{{Off: 8, Len: 0}, {Off: 16, Len: 8}})
		want := image([]datatype.Seg{{Off: 16, Len: 8}})
		if bytes.Equal(want, pristine) {
			t.Fatalf("%v: the rule damaged nothing", cl)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%v: stored image with an empty segment %x, want %x", cl, got, want)
		}
	}
}

func TestOverlappingBrownoutsCompound(t *testing.T) {
	// Two windows on the same OST: [100, 300) with x2, [200, 400) with x4
	// plus extra latency. Where they overlap the multipliers compound and
	// the extras add; outside the overlap only the active window applies.
	sched := NewFaultSchedule(0).
		AddBrownout(Brownout{OST: 1, From: 100, Until: 300, Slowdown: 2}).
		AddBrownout(Brownout{OST: 1, From: 200, Until: 400, Slowdown: 4, ExtraLatency: 5})
	for _, tc := range []struct {
		now       sim.Time
		wantMult  float64
		wantExtra sim.Time
	}{
		{50, 1, 0},  // before both
		{100, 2, 0}, // first window start is inclusive
		{150, 2, 0}, // only the first
		{200, 8, 5}, // overlap: 2*4, extra from the second
		{299, 8, 5}, // last overlapping instant
		{300, 4, 5}, // first window's Until is exclusive
		{399, 4, 5}, // only the second
		{400, 1, 0}, // second window's Until is exclusive
	} {
		mult, extra := sched.slowdown(1, tc.now)
		if mult != tc.wantMult || extra != tc.wantExtra {
			t.Errorf("slowdown(1, %v) = (%v, %v), want (%v, %v)",
				tc.now, mult, extra, tc.wantMult, tc.wantExtra)
		}
	}
	// The other OST never browns out.
	if mult, extra := sched.slowdown(0, 250); mult != 1 || extra != 0 {
		t.Errorf("OST 0 caught OST 1's brownout: (%v, %v)", mult, extra)
	}
}

func TestAdjacentBrownoutWindowsDoNotOverlap(t *testing.T) {
	// Adjacent windows [100, 200) and [200, 300): exactly one is active at
	// the shared boundary because Until is exclusive and From inclusive.
	sched := NewFaultSchedule(0).
		AddBrownout(Brownout{OST: 0, From: 100, Until: 200, Slowdown: 3}).
		AddBrownout(Brownout{OST: 0, From: 200, Until: 300, Slowdown: 5})
	if mult, _ := sched.slowdown(0, 199); mult != 3 {
		t.Errorf("just before the boundary: mult %v, want 3", mult)
	}
	if mult, _ := sched.slowdown(0, 200); mult != 5 {
		t.Errorf("at the boundary: mult %v, want 5 (first window must have closed)", mult)
	}
	if mult, _ := sched.slowdown(0, 300); mult != 1 {
		t.Errorf("after both: mult %v, want 1", mult)
	}
}

func TestContainedBrownoutWindowCompounds(t *testing.T) {
	// An all-OST window containing a narrower per-OST window: inside the
	// inner window both apply to the targeted OST, only the outer applies
	// elsewhere.
	sched := NewFaultSchedule(0).
		AddBrownout(Brownout{OST: -1, From: 0, Until: 1000, Slowdown: 2}).
		AddBrownout(Brownout{OST: 2, From: 400, Until: 600, Slowdown: 3, ExtraLatency: 7})
	if mult, extra := sched.slowdown(2, 500); mult != 6 || extra != 7 {
		t.Errorf("contained window on its OST: (%v, %v), want (6, 7)", mult, extra)
	}
	if mult, extra := sched.slowdown(0, 500); mult != 2 || extra != 0 {
		t.Errorf("contained window leaked to another OST: (%v, %v), want (2, 0)", mult, extra)
	}
	if mult, _ := sched.slowdown(2, 600); mult != 2 {
		t.Errorf("inner Until not exclusive: mult %v, want 2", mult)
	}
}

func TestOverlappingStormsSumPerGrant(t *testing.T) {
	sched := NewFaultSchedule(0).
		AddStorm(RevokeStorm{From: 100, Until: 300, PerGrant: 2}).
		AddStorm(RevokeStorm{From: 200, Until: 400, PerGrant: 3})
	for _, tc := range []struct {
		now  sim.Time
		want int
	}{
		{50, 0},
		{100, 2}, // first storm's From is inclusive
		{199, 2},
		{200, 5}, // overlap sums
		{299, 5},
		{300, 3}, // first storm's Until is exclusive
		{399, 3},
		{400, 0}, // second storm's Until is exclusive
	} {
		if got := sched.stormRevokes(tc.now); got != tc.want {
			t.Errorf("stormRevokes(%v) = %d, want %d", tc.now, got, tc.want)
		}
	}
}

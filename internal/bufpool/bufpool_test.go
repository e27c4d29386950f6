package bufpool

import (
	"sync"
	"testing"
)

func TestClassIndex(t *testing.T) {
	cases := []struct {
		n    int64
		want int
	}{
		{0, 0}, {1, 0}, {255, 0}, {256, 0},
		{257, 1}, {512, 1}, {513, 2},
		{1 << 20, 20 - minClassBits},
		{1<<20 + 1, 21 - minClassBits},
		{1 << maxClassBits, numClasses - 1},
		{1<<maxClassBits + 1, -1},
	}
	for _, c := range cases {
		if got := classIndex(c.n); got != c.want {
			t.Errorf("classIndex(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestGetPutReuse(t *testing.T) {
	Drain()
	before := Snapshot()
	b := Get(1000)
	if len(b) != 1000 || cap(b) != 1024 {
		t.Fatalf("Get(1000): len %d cap %d, want 1000/1024", len(b), cap(b))
	}
	b[0], b[999] = 1, 2
	Put(b)
	c := Get(600)
	if len(c) != 600 || cap(c) != 1024 {
		t.Fatalf("Get(600) after Put: len %d cap %d, want 600/1024", len(c), cap(c))
	}
	after := Snapshot()
	if n := after.News - before.News; n != 1 {
		t.Errorf("allocator served %d Gets, want 1 (second Get must reuse)", n)
	}
	if !Debug && &c[0] != &b[0] {
		t.Error("second Get did not return the pooled buffer")
	}
}

func TestGetZero(t *testing.T) {
	b := Get(512)
	for i := range b {
		b[i] = 0xFF
	}
	Put(b)
	z := GetZero(512)
	for i, v := range z {
		if v != 0 {
			t.Fatalf("GetZero byte %d = %#02x, want 0", i, v)
		}
	}
}

func TestPutForeign(t *testing.T) {
	Put(nil)
	Put(make([]byte, 10))                // below the smallest class
	Put(make([]byte, 1<<maxClassBits+1)) // above the largest
	Put(make([]byte, 0, 300))            // odd capacity: lands in the 256 class
	b := Get(256)
	if cap(b) < 256 {
		t.Fatalf("cap %d after odd-capacity Put", cap(b))
	}
	Put(b)
}

func TestOversize(t *testing.T) {
	b := Get(1<<maxClassBits + 1)
	if int64(len(b)) != 1<<maxClassBits+1 {
		t.Fatalf("oversize Get: len %d", len(b))
	}
	Put(b) // dropped, not pooled
}

func TestClassCap(t *testing.T) {
	Drain()
	before := Snapshot()
	// One byte budget for every class: a 4 MiB class keeps 16 buffers, a
	// 512 B class (checked through its cap, not by filling it) 131072.
	const size = 4 << 20
	const want = classBudget / size
	if got := classes[classIndex(300)].max; got != classBudget/512 {
		t.Errorf("512 B class keeps %d buffers, want %d", got, classBudget/512)
	}
	bufs := make([][]byte, want+5)
	for i := range bufs {
		bufs[i] = Get(size)
	}
	for _, b := range bufs {
		Put(b)
	}
	after := Snapshot()
	if got := after.Puts - before.Puts; got != want {
		t.Errorf("class accepted %d buffers, want cap %d", got, want)
	}
	if got := after.Drops - before.Drops; got != 5 {
		t.Errorf("dropped %d buffers, want 5", got)
	}
	Drain()
}

// TestConcurrent hammers one class from many goroutines; run with -race.
func TestConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				b := Get(int64(200 + (g+i)%2000))
				for j := range b {
					b[j] = byte(g)
				}
				for j := range b {
					if b[j] != byte(g) {
						t.Errorf("goroutine %d saw foreign write", g)
						return
					}
				}
				Put(b)
			}
		}(g)
	}
	wg.Wait()
}

// TestPoisonSelfCheck exercises the debug machinery when compiled in: a
// write-after-Put must be detected by the next Get from that class.
func TestPoisonSelfCheck(t *testing.T) {
	if !Debug {
		t.Skip("build with -tags bufpooldebug")
	}
	Drain()
	b := Get(400)
	Put(b)
	b[3] = 0x42 // illegal write through a stale alias
	defer func() {
		Drain()
		if recover() == nil {
			t.Fatal("Get did not detect the poisoned write")
		}
	}()
	Get(400)
}

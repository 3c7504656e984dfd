package kernel

import (
	"fmt"
	"testing"

	"repro/internal/kernel/minilang"
)

// TestProgCacheHitMissCounters pins the cache contract end to end
// through Kernel.Execute: first execution of a source misses, every
// repeat hits, and the counters land in both the kernel Usage and the
// manager-wide stats.
func TestProgCacheHitMissCounters(t *testing.T) {
	m, _, _, _ := newManager(t)
	k := m.Start("minilang", "alice")
	for i := 0; i < 5; i++ {
		if _, err := k.Execute("x = 1 + 2\nprint(x)", nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := k.Execute("y = 9", nil); err != nil {
		t.Fatal(err)
	}
	u := k.Usage()
	if u.ProgCacheMisses != 2 || u.ProgCacheHits != 4 {
		t.Fatalf("usage hits/misses = %d/%d, want 4/2", u.ProgCacheHits, u.ProgCacheMisses)
	}
	hits, misses, resident := m.ProgCacheStats()
	if hits != 4 || misses != 2 || resident != 2 {
		t.Fatalf("manager stats = %d/%d/%d, want 4/2/2", hits, misses, resident)
	}
}

// TestProgCacheSharedAcrossKernels: the cache is manager-wide, so a
// second kernel executing the same source hits immediately — the
// fleet-census pattern (same probe cell against many kernels).
func TestProgCacheSharedAcrossKernels(t *testing.T) {
	m, _, _, _ := newManager(t)
	k1 := m.Start("minilang", "alice")
	k2 := m.Start("minilang", "bob")
	if _, err := k1.Execute("a = 40 + 2", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := k2.Execute("a = 40 + 2", nil); err != nil {
		t.Fatal(err)
	}
	if u := k2.Usage(); u.ProgCacheHits != 1 || u.ProgCacheMisses != 0 {
		t.Fatalf("second kernel hits/misses = %d/%d, want 1/0", u.ProgCacheHits, u.ProgCacheMisses)
	}
}

// TestProgCacheSyntaxErrorNotCached: a failed parse is surfaced as
// the usual SyntaxError execution result and is not cached, so the
// cache never replays stale failures and never holds nil programs.
func TestProgCacheSyntaxErrorNotCached(t *testing.T) {
	m, _, _, _ := newManager(t)
	k := m.Start("minilang", "alice")
	for i := 0; i < 2; i++ {
		res, err := k.Execute("x = = 1", nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Status != "error" || res.EName != "SyntaxError" {
			t.Fatalf("run %d: status=%s ename=%s, want SyntaxError", i, res.Status, res.EName)
		}
	}
	if _, _, resident := m.ProgCacheStats(); resident != 0 {
		t.Fatalf("resident = %d after syntax errors, want 0", resident)
	}
}

// TestProgCacheLRUEviction: the bound holds and the oldest entry is
// the one evicted.
func TestProgCacheLRUEviction(t *testing.T) {
	c := newProgCache(3)
	srcs := []string{"a = 1", "b = 2", "c = 3"}
	for _, s := range srcs {
		if _, hit, err := c.program(s); err != nil || hit {
			t.Fatalf("prime %q: hit=%v err=%v", s, hit, err)
		}
	}
	// Touch "a = 1" so "b = 2" becomes the LRU victim.
	if _, hit, _ := c.program("a = 1"); !hit {
		t.Fatal("expected hit on resident program")
	}
	if _, hit, err := c.program("d = 4"); err != nil || hit {
		t.Fatalf("insert d: hit=%v err=%v", hit, err)
	}
	if c.len() != 3 {
		t.Fatalf("len = %d, want 3", c.len())
	}
	if _, hit, _ := c.program("b = 2"); hit {
		t.Fatal("LRU victim b = 2 still resident")
	}
	if _, hit, _ := c.program("a = 1"); !hit {
		t.Fatal("recently used a = 1 was evicted")
	}
}

// TestProgCacheIdenticalOutput: cached executions produce output
// identical to an uncached interpreter run — the transparency claim.
func TestProgCacheIdenticalOutput(t *testing.T) {
	src := "total = 0\nfor i in range(10)\n    total = total + i\nend\nprint(total)"
	k := NewManager(Config{}).Start("minilang", "alice")
	var outs []string
	for i := 0; i < 3; i++ {
		res, err := k.Execute(src, nil)
		if err != nil {
			t.Fatal(err)
		}
		outs = append(outs, res.Stdout)
	}
	ref := minilang.NewInterp(nil, minilang.Limits{})
	if err := ref.Run(src); err != nil {
		t.Fatal(err)
	}
	want := ref.TakeStdout()
	for i, got := range outs {
		if got != want {
			t.Fatalf("run %d: stdout %q, want %q", i, got, want)
		}
	}
}

// TestProgCacheConcurrentExecute hammers one manager from several
// kernels under -race: the shared cache and the per-kernel engines
// must stay coherent.
func TestProgCacheConcurrentExecute(t *testing.T) {
	m, _, _, _ := newManager(t)
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		k := m.Start("minilang", fmt.Sprintf("user%d", g))
		go func(k *Kernel, g int) {
			for i := 0; i < 50; i++ {
				src := fmt.Sprintf("v = %d + %d\n", g, i%5)
				if _, err := k.Execute(src, nil); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(k, g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	hits, misses, _ := m.ProgCacheStats()
	if hits+misses != 400 {
		t.Fatalf("hits %d + misses %d != 400 executions", hits, misses)
	}
	if misses > 45 { // 8 goroutines × 5 distinct sources, plus benign races
		t.Fatalf("misses = %d, cache not engaging", misses)
	}
}

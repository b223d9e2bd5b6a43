package nn

import (
	"errors"
	"testing"

	"nora/internal/rng"
)

// Page-governed admission: a pool smaller than slots × pagesFor(MaxSeq)
// must reject full-window admissions with ErrNoFreePages once exhausted —
// even with slots to spare — and budget admissions must fit exactly as many
// sequences as their reserved pages allow. Released pages must be reusable.
func TestKVPageAdmissionCapacity(t *testing.T) {
	cfg := optConfig()
	cfg.MaxSeq = 24
	m, err := NewModel(cfg, rng.New(820))
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(m)

	// 4 slots, 4-token pages, but only 9 pages: a full-window admission
	// reserves 6, so a second one must fail on pages while 3 slots are free.
	bg := NewBatchGeneratorPaged(r, 4, 4, 9)
	if bg.PageTokens() != 4 || bg.TotalPages() != 9 || bg.FreePages() != 9 {
		t.Fatalf("pool geometry: pageTokens=%d total=%d free=%d", bg.PageTokens(), bg.TotalPages(), bg.FreePages())
	}
	s0, _, err := admitPrompt(bg, []int{1, 2, 3}, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := bg.FreePages(); got != 3 {
		t.Fatalf("full-window admit must reserve pagesFor(MaxSeq)=6, free=%d", got)
	}
	if _, _, err := admitPrompt(bg, []int{4}, "", 0); !errors.Is(err, ErrNoFreePages) {
		t.Fatalf("exhausted pool: %v", err)
	}
	if bg.Free() != 3 {
		t.Fatalf("failed admission must not consume a slot, free=%d", bg.Free())
	}
	if bg.FreePages() != 3 {
		t.Fatalf("failed admission must not leak pages, free=%d", bg.FreePages())
	}

	// Budget admissions reserve only what they declare: 3 prompt tokens + 5
	// new = 8 positions = 2 pages each; one fits, then the pool (1 page
	// left) rejects the next.
	s1, _, err := admitPrompt(bg, []int{5, 6, 7}, "", 8)
	if err != nil {
		t.Fatal(err)
	}
	if got := bg.FreePages(); got != 1 {
		t.Fatalf("budget admit must reserve 2 pages, free=%d", got)
	}
	if _, _, err := admitPrompt(bg, []int{8, 9, 10, 11, 12}, "", 8); !errors.Is(err, ErrNoFreePages) {
		t.Fatalf("pool with 1 free page: %v", err)
	}

	// A sequence decoding past its budget tops up lazily from the pool…
	for i := 0; i < 6; i++ { // pos 3..8, crosses into a 3rd page at pos 8
		if _, err := stepTokens(bg, []int{s1}, []int{1}); err != nil {
			t.Fatalf("step %d past budget with free pages: %v", i, err)
		}
	}
	if got := bg.FreePages(); got != 0 {
		t.Fatalf("lazy top-up must take the last page, free=%d", got)
	}
	// …and fails cleanly with ErrNoFreePages when none are left.
	for i := 0; i < 3; i++ { // pos 9..11 still inside page 3
		if _, err := stepTokens(bg, []int{s1}, []int{1}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := stepTokens(bg, []int{s1}, []int{1}); !errors.Is(err, ErrNoFreePages) {
		t.Fatalf("step past reserved pages on empty pool: %v", err)
	}

	// Release returns every page; the freed capacity admits again.
	bg.Release(s0)
	bg.Release(s1)
	if bg.FreePages() != 9 || bg.Free() != 4 {
		t.Fatalf("after release: pages=%d slots=%d", bg.FreePages(), bg.Free())
	}
	if _, _, err := admitPrompt(bg, []int{1}, "", 0); err != nil {
		t.Fatalf("re-admission after release: %v", err)
	}
}

// Begin admits a sequence exactly when a slot and enough free pages for its
// budget exist; a rejected Begin claims nothing.
func TestKVPageCanAdmit(t *testing.T) {
	cfg := optConfig()
	cfg.MaxSeq = 16
	m, _ := NewModel(cfg, rng.New(821))
	bg := NewBatchGeneratorPaged(NewRunner(m), 2, 4, 5)

	slot, err := bg.Begin("", 0)
	if err != nil {
		t.Fatalf("empty generator must admit a full-window sequence (4 pages ≤ 5 free): %v", err)
	}
	if _, err := bg.Begin("", 0); !errors.Is(err, ErrNoFreePages) {
		t.Fatalf("1 free page cannot hold a full window: %v", err)
	}
	if bg.Free() != 1 || bg.FreePages() != 1 {
		t.Fatalf("rejected Begin claimed capacity: slots=%d pages=%d", bg.Free(), bg.FreePages())
	}
	small, err := bg.Begin("", 4)
	if err != nil {
		t.Fatalf("1 free page holds a 4-token budget: %v", err)
	}
	if bg.PagesFor(5) != 2 || bg.PagesFor(4) != 1 || bg.PagesFor(0) != 0 {
		t.Fatalf("PagesFor: %d %d %d", bg.PagesFor(5), bg.PagesFor(4), bg.PagesFor(0))
	}
	bg.Release(small)
	bg.Release(slot)
	if _, err := bg.Begin("", 0); err != nil {
		t.Fatalf("release must restore full-window admission: %v", err)
	}
}

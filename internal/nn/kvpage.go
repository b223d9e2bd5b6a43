package nn

import (
	"errors"
	"fmt"
)

// Paged KV-cache storage. Instead of one MaxSeq×KVDim slab per layer per
// sequence, every sequence's keys and values live in fixed-size pages drawn
// from a shared freelist: a page holds pageTokens consecutive positions of
// every layer's K and V rows, so a sequence of n tokens occupies exactly
// ceil(n/pageTokens) pages regardless of the context window. Admission
// capacity is therefore governed by pages — many short sequences fit where
// slab storage would have reserved worst-case memory for each — and a long
// prompt only ties up the pages it actually fills. Page granularity is a
// pure storage layout: attendCachedRow walks the same positions in the same
// order whatever the page size, so results are bit-identical across page
// sizes (pinned by the decode determinism tests).

// ErrNoFreePages reports an admission or prefill that needs more KV pages
// than the pool has free. The serving path maps it to 429, exactly like
// ErrNoFreeSlot.
var ErrNoFreePages = errors.New("nn: decode: KV page pool exhausted")

// DefaultKVPageTokens is the default page granularity in token positions.
const DefaultKVPageTokens = 16

// kvPagePool is a fixed pool of KV pages shared by every slot of one
// BatchGenerator (or owned wholesale by one Generator). All pages are
// allocated eagerly at construction, so steady-state admission and release
// are freelist pushes/pops with no heap traffic. Logits describes its one
// pooled page, spanning exactly the context, with a pool of its own.
type kvPagePool struct {
	layers     int
	kvDim      int
	pageTokens int
	pageLen    int // layers × 2 (K and V) × pageTokens × kvDim floats
	total      int
	free       [][]float32
}

func newKVPagePool(layers, kvDim, pageTokens, totalPages int) *kvPagePool {
	if layers <= 0 || kvDim <= 0 || pageTokens <= 0 || totalPages <= 0 {
		panic(fmt.Sprintf("nn: kvPagePool(layers=%d, kvDim=%d, pageTokens=%d, totalPages=%d): non-positive dimension",
			layers, kvDim, pageTokens, totalPages))
	}
	p := &kvPagePool{
		layers:     layers,
		kvDim:      kvDim,
		pageTokens: pageTokens,
		pageLen:    layers * 2 * pageTokens * kvDim,
		total:      totalPages,
		free:       make([][]float32, totalPages),
	}
	backing := make([]float32, totalPages*p.pageLen)
	for i := range p.free {
		p.free[i] = backing[i*p.pageLen : (i+1)*p.pageLen : (i+1)*p.pageLen]
	}
	return p
}

// pagesFor returns the number of pages a sequence of n token positions
// occupies.
func (p *kvPagePool) pagesFor(n int) int {
	if n <= 0 {
		return 0
	}
	return (n + p.pageTokens - 1) / p.pageTokens
}

func (p *kvPagePool) take() ([]float32, error) {
	if len(p.free) == 0 {
		return nil, ErrNoFreePages
	}
	pg := p.free[len(p.free)-1]
	p.free[len(p.free)-1] = nil
	p.free = p.free[:len(p.free)-1]
	return pg, nil
}

func (p *kvPagePool) put(pg []float32) {
	p.free = append(p.free, pg)
}

// reserve grows st's page list until it covers at least n token positions,
// taking pages from the pool. On ErrNoFreePages the pages grabbed so far are
// kept (they are released with the slot); positions already cached are never
// moved.
func (st *decodeState) reserve(n int) error {
	need := st.pool.pagesFor(n)
	for len(st.pages) < need {
		pg, err := st.pool.take()
		if err != nil {
			return err
		}
		st.pages = append(st.pages, pg)
	}
	return nil
}

// releasePages returns every page to the pool. The page list keeps its
// capacity for the next admission.
func (st *decodeState) releasePages() {
	for i, pg := range st.pages {
		st.pool.put(pg)
		st.pages[i] = nil
	}
	st.pages = st.pages[:0]
}

// storeKV writes the K and V rows (length KVDim each) of one position in
// one layer into its page. Within a page, layer l's K block (pageTokens·kvDim
// floats at offset l·2·pageTokens·kvDim) holds the keys position-minor, key
// column c of page slot s at c·pageTokens+s, so the score kernel loads eight
// positions of one column at once; the V block after it holds one
// kvDim-float row per slot, so the value kernel loads a row's columns at
// once.
func (st *decodeState) storeKV(layer, pos int, k, v []float32) {
	pt, d := st.pool.pageTokens, st.pool.kvDim
	pg := st.pages[pos/pt]
	s := pos % pt
	kb := pg[layer*2*pt*d:][:pt*d]
	for c, x := range k[:d] {
		kb[c*pt+s] = x
	}
	copy(pg[(layer*2+1)*pt*d+s*d:][:d], v)
}

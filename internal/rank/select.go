package rank

// Select returns the indices of the m highest-scoring items among those no
// filter excludes, in descending score order with ties broken by ascending
// index (deterministic rankings; see McSherry & Najork on tied scores).
// Fewer than m items are returned when fewer candidates survive the
// filters, and nil when none do. scores is never mutated, so callers may
// read scores[i] back for the returned items.
//
// Selection is a size-m min-heap over the candidates, O(n_i log m), which
// matters when ranking a 17k-item catalogue for a top-50 list. Each item
// is first tested against the heap root and only then against the
// filters, through one exclusion scan that walks Sorted filters with
// cursors and falls back to the Excluded predicate for the rest.
func Select(scores []float64, m int, filters ...Filter) []int {
	return selectFlat(scores, m, flatten(filters))
}

// selectFlat is Select over an already-flattened filter list (the engine
// flattens once per request, for the fingerprint and the scan).
func selectFlat(scores []float64, m int, flat []Filter) []int {
	if m <= 0 {
		return nil
	}
	scan := newExclusionScan(flat)
	h := newTopHeap(m, len(scores))
	for i, s := range scores {
		if h.admits(s, i) && !scan.excluded(i) {
			h.add(s, i)
		}
	}
	ranked := h.drain()
	if len(ranked) == 0 {
		return nil
	}
	out := make([]int, len(ranked))
	for n, c := range ranked {
		out[n] = c.item
	}
	return out
}

// exclusionScan merges a request's filters into one per-item test for the
// ascending selection scan: Sorted filters advance cursors (amortized O(1)
// per item), the rest answer through their Excluded predicate. excluded
// must be called with strictly increasing items.
type exclusionScan struct {
	lists   [][]int32
	cursors []int
	preds   []Filter
}

func newExclusionScan(flat []Filter) *exclusionScan {
	s := &exclusionScan{}
	for _, f := range flat {
		if sf, ok := f.(Sorted); ok {
			s.lists = append(s.lists, sf.ExcludedList())
			continue
		}
		s.preds = append(s.preds, f)
	}
	s.cursors = make([]int, len(s.lists))
	return s
}

// reset rewinds the cursors for a new ascending scan.
func (s *exclusionScan) reset() {
	clear(s.cursors)
}

func (s *exclusionScan) excluded(item int) bool {
	for n, l := range s.lists {
		c := s.cursors[n]
		for c < len(l) && int(l[c]) < item {
			c++
		}
		s.cursors[n] = c
		if c < len(l) && int(l[c]) == item {
			return true
		}
	}
	for _, p := range s.preds {
		if p.Excluded(item) {
			return true
		}
	}
	return false
}

// entry is one kept candidate of a top-m selection.
type entry struct {
	score float64
	item  int
}

// topHeap keeps the best m candidates offered so far: a min-heap keyed by
// (score asc, item desc), so the weakest kept candidate sits at the root.
// The inverted item order makes the heap's notion of "worst" agree with
// the ranking's tie rule (among equal scores, the larger index is worse).
// Both the dense scan and the sparse-support path select through it.
type topHeap struct {
	m int
	e []entry
}

func newTopHeap(m, capHint int) *topHeap {
	return &topHeap{m: m, e: make([]entry, 0, min(m, capHint))}
}

func (a entry) less(b entry) bool {
	if a.score != b.score {
		return a.score < b.score
	}
	return a.item > b.item
}

// admits reports whether (score, item) would enter the heap: always while
// it holds fewer than m, otherwise iff it ranks above the root. Callers
// test this before their exclusion filters — the far cheaper check
// rejects most candidates of a large catalogue first.
func (h *topHeap) admits(score float64, item int) bool {
	if len(h.e) < h.m {
		return true
	}
	return !(entry{score, item}).less(h.e[0])
}

// add inserts an admitted candidate, evicting the root when full.
func (h *topHeap) add(score float64, item int) {
	if len(h.e) < h.m {
		h.e = append(h.e, entry{score, item})
		for j := len(h.e) - 1; j > 0; {
			p := (j - 1) / 2
			if !h.e[j].less(h.e[p]) {
				break
			}
			h.e[j], h.e[p] = h.e[p], h.e[j]
			j = p
		}
		return
	}
	h.e[0] = entry{score, item}
	h.down()
}

func (h *topHeap) down() {
	n := len(h.e)
	for j := 0; ; {
		c := 2*j + 1
		if c >= n {
			return
		}
		if r := c + 1; r < n && h.e[r].less(h.e[c]) {
			c = r
		}
		if !h.e[c].less(h.e[j]) {
			return
		}
		h.e[j], h.e[c] = h.e[c], h.e[j]
		j = c
	}
}

// drain empties the heap into ranking order (best first) and returns the
// ranked entries, aliasing the heap's storage.
func (h *topHeap) drain() []entry {
	out := h.e
	for n := len(out) - 1; n > 0; n-- {
		out[0], out[n] = out[n], out[0]
		h.e = out[:n]
		h.down()
	}
	h.e = out[:0]
	return out
}

// selectSupport is the engine's selection over a sparse support: cand
// lists, ascending, the only items of the n-item catalogue whose score
// may be nonzero, with their scores in cs, and every other item scores
// +0. The result — items and score bits — is identical to selecting over
// the dense score vector: the positive candidates are heap-selected, and
// any slots left are filled with zero-score items in ascending index
// order, which is where the tie rule puts them.
func selectSupport(n int, cand []int32, cs []float64, m int, flat []Filter) ([]int, []float64) {
	if m <= 0 {
		return nil, []float64{}
	}
	scan := newExclusionScan(flat)
	h := newTopHeap(m, len(cand))
	for j, c := range cand {
		if s, i := cs[j], int(c); s > 0 && h.admits(s, i) && !scan.excluded(i) {
			h.add(s, i)
		}
	}
	ranked := h.drain()
	items := make([]int, len(ranked), min(m, n))
	for k, r := range ranked {
		items[k] = r.item
	}
	if len(items) < m {
		// Every positive candidate not excluded is already in the heap,
		// so the fill skips them all.
		scan.reset()
		j := 0
		for i := 0; i < n && len(items) < m; i++ {
			for j < len(cand) && int(cand[j]) < i {
				j++
			}
			if j < len(cand) && int(cand[j]) == i && cs[j] > 0 {
				continue
			}
			if !scan.excluded(i) {
				items = append(items, i)
			}
		}
	}
	scores := make([]float64, len(items))
	for k, r := range ranked {
		scores[k] = r.score
	}
	if len(items) == 0 {
		items = nil // Select's empty result
	}
	return items, scores
}

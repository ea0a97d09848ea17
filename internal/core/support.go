package core

import (
	"math"
	"math/bits"
	"runtime"
	"sync"

	"repro/internal/linalg"
)

// Sparse-support scoring. OCuLaR's factors are non-negative and each user
// and item belongs to few co-clusters, so for a bias-free model
// P[r_ui = 1] = 1 − exp(−⟨f_u, f_i⟩) is exactly 0 for every item sharing
// no co-cluster with u. ScoreSupport scores only the items that do: the
// union of the postings of u's nonzero co-clusters. Each candidate is
// scored by the same full-row kernel the dense ScoreUser runs (DotF32 or
// Dot, then 1 − exp), so its score has the same bits, and every other
// item's dense score is +0 — which is what lets the ranking engine
// reproduce dense selection exactly from the candidates alone.
//
// ScoreSupport declines (ok=false) whenever that argument does not hold
// or would not pay: the model has biases; the item factors contain a
// negative or non-finite value; the user's row does; or the user's
// postings add up to at least the catalogue size.

// supportIndex is the co-cluster posting index of one served factor
// section, built once on first use (or eagerly by IndexSupport) and
// immutable afterwards.
type supportIndex struct {
	once sync.Once
	// start[c]:start[c+1] bounds co-cluster c's postings in items; each
	// posting list is ascending.
	start []int32
	items []int32
	n     int // catalogue size the postings index
	// dense records an item value that is negative or non-finite: the
	// zero-score argument fails, so ScoreSupport always declines.
	dense bool
	marks sync.Pool // *[]uint64, one bit per item, all zero between uses
}

// indexFactors builds x over the item-factor section fi (stride k).
func indexFactors[T float32 | float64](x *supportIndex, fi []T, k int) {
	x.n = len(fi) / max(k, 1)
	x.start = make([]int32, k+1)
	for j, v := range fi {
		if !(v >= 0) || math.IsInf(float64(v), 1) {
			x.dense = true
			return
		}
		if v != 0 {
			x.start[j%k+1]++
		}
	}
	for c := 0; c < k; c++ {
		x.start[c+1] += x.start[c]
	}
	x.items = make([]int32, x.start[k])
	next := append([]int32(nil), x.start[:k]...)
	for j, v := range fi {
		if v != 0 {
			c := j % k
			x.items[next[c]] = int32(j / k)
			next[c]++
		}
	}
}

// scoreSupport is ScoreSupport over one factor section: fu is the user's
// row, fi the indexed item section and dot the dense path's kernel.
func scoreSupport[T float32 | float64](x *supportIndex, fu, fi []T, dot func(a, b []T) float64, cand []int32, scores []float64) ([]int32, []float64, bool) {
	if x.dense {
		return cand, scores, false
	}
	total := 0
	for c, v := range fu {
		if !(v >= 0) || math.IsInf(float64(v), 1) {
			return cand, scores, false
		}
		if v != 0 {
			total += int(x.start[c+1] - x.start[c])
		}
	}
	if total >= x.n {
		return cand, scores, false
	}
	mp, _ := x.marks.Get().(*[]uint64)
	if mp == nil {
		m := make([]uint64, (x.n+63)/64)
		mp = &m
	}
	marks := *mp
	for c, v := range fu {
		if v != 0 {
			for _, i := range x.items[x.start[c]:x.start[c+1]] {
				marks[i>>6] |= 1 << (i & 63)
			}
		}
	}
	// Reading the bitmap word by word yields the union ascending and
	// leaves it zeroed for the next request.
	cand = cand[:0]
	for w, word := range marks {
		if word == 0 {
			continue
		}
		marks[w] = 0
		for ; word != 0; word &= word - 1 {
			cand = append(cand, int32(w<<6+bits.TrailingZeros64(word)))
		}
	}
	x.marks.Put(mp)
	k := len(fu)
	scores = scores[:0]
	for _, i := range cand {
		z := dot(fu, fi[int(i)*k:int(i+1)*k])
		scores = append(scores, 1-math.Exp(-z))
	}
	return cand, scores, true
}

// IndexSupport builds the posting index ScoreSupport uses, if it is not
// built yet. ScoreSupport builds it on first use; serving calls this when
// it installs a model so no request pays for the build. It is a no-op for
// a model with biases, which always scores densely.
func (m *Model) IndexSupport() {
	if m.bu != nil {
		return
	}
	m.support.once.Do(func() { indexFactors(&m.support, m.fi, m.k) })
}

// ScoreSupport is the sparse-support path of ScoreUser: it replaces cand
// with the ascending items sharing a nonzero co-cluster with user u and
// scores with their scores, bit-identical to ScoreUser's entries; every
// other item scores exactly 0. ok=false means the path does not apply to
// u (see the package notes above) and the caller must score densely. cand
// and scores are reused as scratch.
func (m *Model) ScoreSupport(u int, cand []int32, scores []float64) ([]int32, []float64, bool) {
	if m.bu != nil {
		return cand, scores, false
	}
	m.IndexSupport()
	return scoreSupport(&m.support, m.UserFactor(u), m.fi, linalg.Dot, cand, scores)
}

// IndexSupport builds the posting index over the section ScoreUser
// streams: the float32 copy when the file has one, the float64 factors
// otherwise. See Model.IndexSupport.
func (mm *MappedModel) IndexSupport() {
	if mm.fu32 == nil {
		mm.view.IndexSupport()
	} else if mm.bu32 == nil {
		mm.support.once.Do(func() { indexFactors(&mm.support, mm.fi32, mm.view.k) })
	}
	runtime.KeepAlive(mm)
}

// ScoreSupport is the sparse-support path of ScoreUser over the section
// ScoreUser streams; see Model.ScoreSupport.
func (mm *MappedModel) ScoreSupport(u int, cand []int32, scores []float64) ([]int32, []float64, bool) {
	defer runtime.KeepAlive(mm)
	if mm.fu32 == nil {
		return mm.view.ScoreSupport(u, cand, scores)
	}
	if mm.bu32 != nil {
		return cand, scores, false
	}
	mm.IndexSupport()
	k := mm.view.k
	return scoreSupport(&mm.support, mm.fu32[u*k:(u+1)*k], mm.fi32, linalg.DotF32, cand, scores)
}

// IndexSupport builds the posting index of the mapped item range, over
// the section ScoreItems streams. See Model.IndexSupport.
func (rr *MappedModelRange) IndexSupport() {
	switch {
	case rr.bu != nil:
	case rr.fu32 != nil:
		rr.support.once.Do(func() { indexFactors(&rr.support, rr.fi32, rr.k) })
	default:
		rr.support.once.Do(func() { indexFactors(&rr.support, rr.fi, rr.k) })
	}
	runtime.KeepAlive(rr)
}

// ScoreSupport is the sparse-support path of ScoreItems: candidates are
// partition-local indices, like ScoreItems' output. See
// Model.ScoreSupport.
func (rr *MappedModelRange) ScoreSupport(u int, cand []int32, scores []float64) ([]int32, []float64, bool) {
	defer runtime.KeepAlive(rr)
	if rr.bu != nil {
		return cand, scores, false
	}
	rr.IndexSupport()
	k := rr.k
	if rr.fu32 != nil {
		return scoreSupport(&rr.support, rr.fu32[u*k:(u+1)*k], rr.fi32, linalg.DotF32, cand, scores)
	}
	return scoreSupport(&rr.support, rr.fu[u*k:(u+1)*k], rr.fi, linalg.Dot, cand, scores)
}

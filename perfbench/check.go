package main

import (
	"fmt"
	"math"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/rank"
)

// reference ranks directly, in-process, with a rank.Engine over a model
// file: the answer every served list must equal bit for bit.
type reference struct {
	in   *inputs
	mm   *core.MappedModel
	eng  *rank.Engine
	deny rank.Filter
}

func newReference(in *inputs, modelPath string) (*reference, error) {
	mm, err := core.OpenMappedModel(modelPath)
	if err != nil {
		return nil, err
	}
	tags, err := rank.LoadTagTableFile(filepath.Join(in.dir, tagsFile), in.train.Cols())
	if err != nil {
		mm.Close()
		return nil, err
	}
	deny, err := tags.Deny(denyTag)
	if err != nil {
		mm.Close()
		return nil, err
	}
	return &reference{in: in, mm: mm, eng: rank.NewEngine(mm, rank.Config{CacheSize: -1}), deny: deny}, nil
}

func (r *reference) close() { r.mm.Close() }

// filters is the filter stack a served request ranks under: the user's
// training positives, then the request's exclude list and tag deny.
func (r *reference) filters(req *request, user int) []rank.Filter {
	fs := []rank.Filter{rank.TrainRow(r.in.train, user)}
	if len(req.exclude) > 0 {
		fs = append(fs, rank.ExcludeItems(req.exclude))
	}
	if req.deny {
		fs = append(fs, r.deny)
	}
	return fs
}

// checked is one served list with the request that asked for it.
type checked struct {
	req *request
	l   list
}

// sampleLists picks up to n successful read lists spread evenly over the
// given results, in order.
func sampleLists(n int, groups ...[]*result) []checked {
	var all []checked
	for _, rs := range groups {
		for _, r := range rs {
			if !r.ok() || !r.keep || !r.req.kind.read() {
				continue
			}
			for _, l := range r.lists {
				all = append(all, checked{req: r.req, l: l})
			}
		}
	}
	if len(all) <= n {
		return all
	}
	out := make([]checked, 0, n)
	for k := 0; k < n; k++ {
		out = append(out, all[k*len(all)/n])
	}
	return out
}

// checkLists recomputes each sampled list with the reference and records
// every list whose items or score bits differ.
func (p *pass) checkLists(ref *reference, lists []checked) {
	for _, c := range lists {
		p.checked++
		items, scores, _ := ref.eng.TopM(c.l.user, c.req.m, ref.filters(c.req, c.l.user)...)
		if msg := diffList(c.l, items, scores); msg != "" {
			p.problem("user %d m=%d: served list differs from the direct ranking: %s", c.l.user, c.req.m, msg)
		}
	}
}

func diffList(got list, items []int, scores []float64) string {
	if len(got.items) != len(items) {
		return fmt.Sprintf("%d items, want %d", len(got.items), len(items))
	}
	for n := range items {
		if got.items[n] != items[n] || math.Float64bits(got.scores[n]) != math.Float64bits(scores[n]) {
			return fmt.Sprintf("rank %d: item %d score %v, want item %d score %v",
				n, got.items[n], got.scores[n], items[n], scores[n])
		}
	}
	return ""
}

package core

import (
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"unsafe"

	"repro/internal/linalg"
)

// MappedModelRange is the shard-serving view of a v2 model file: the user
// factor (and bias) sections are mapped in full, but of the item sections
// only the rows of the half-open range [ItemLo, ItemHi) are mapped — a
// process serving one item-partition of a catalogue too large for a
// single box touches (and can page in) only its slice of the factor
// bytes. The 128-byte header is always validated in full (including the
// offset-table cross-check against the recomputed canonical layout), so
// the offset math below starts from proven-in-bounds sections; the slices
// themselves are windows rounded down to page boundaries, as mmap
// requires, with the sub-page remainder skipped in the returned views.
//
// Scoring semantics match MappedModel exactly, item for item: a file with
// a float32 section is scored through linalg.ScoreF32 over the sliced
// float32 rows, otherwise through the exact float64 factors — in both
// cases each item's score is computed independently from the same bytes a
// full map would use, so a shard's score for item i is bit-identical to a
// single-process server's score for item i. That per-item identity is
// what makes the scatter-gathered merge of the cluster tier provably
// equal to single-process serving.
//
// A MappedModelRange is immutable and safe for concurrent use. The
// mappings are released when the value becomes unreachable, or eagerly
// via Close (after which every view is invalid).
type MappedModelRange struct {
	k, users, items int
	lo, hi          int
	path            string

	// windows are the raw page-aligned mappings backing the views below.
	windows [][]byte

	fu, bu []float64 // full user sections
	fi, bi []float64 // item rows [lo, hi) only; index local (row 0 = item lo)

	fu32, bu32 []float32 // float32 sections, nil when absent
	fi32, bi32 []float32

	support supportIndex // see ScoreSupport

	cleanup runtime.Cleanup
}

// OpenMappedModelRange maps the v2 model file at path, restricted to the
// item range [itemLo, itemHi). The header is validated in full; the item
// factor (and bias, and float32) sections are mapped only across the
// requested rows, each window starting on a page boundary. A v1 file
// yields an error wrapping ErrLegacyFormat; an empty or out-of-bounds
// range is rejected. itemHi == -1 means "through the end of the
// catalogue", resolved against the file's header — the tail shard of an
// item partition uses it to follow catalogue growth across retrained
// models without reconfiguration.
func OpenMappedModelRange(path string, itemLo, itemHi int) (*MappedModelRange, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("core: mapping model range: %w", err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("core: mapping model range: %w", err)
	}
	size := st.Size()
	if size < v2HeaderSize {
		magic := make([]byte, 8)
		if _, err := io.ReadFull(f, magic); err == nil && string(magic) == magicV1 {
			return nil, fmt.Errorf("core: mapping model range %s: %w", path, ErrLegacyFormat)
		}
		return nil, fmt.Errorf("core: mapping model range %s: file of %d bytes is too small for a v2 header", path, size)
	}
	hdr := make([]byte, v2HeaderSize)
	if _, err := f.ReadAt(hdr, 0); err != nil {
		return nil, fmt.Errorf("core: mapping model range %s: reading header: %w", path, err)
	}
	switch string(hdr[:8]) {
	case magicV1:
		return nil, fmt.Errorf("core: mapping model range %s: %w", path, ErrLegacyFormat)
	case magicV2:
	default:
		return nil, fmt.Errorf("core: mapping model range %s: bad magic %q", path, hdr[:8])
	}
	h, err := parseV2Header(hdr[8:])
	if err != nil {
		return nil, fmt.Errorf("core: mapping model range %s: %w", path, err)
	}
	if uint64(size) != h.layout.size {
		return nil, fmt.Errorf("core: mapping model range %s: file is %d bytes, header says %d", path, size, h.layout.size)
	}
	if itemHi == -1 {
		itemHi = int(h.items)
	}
	if itemLo < 0 || itemHi > int(h.items) || itemLo >= itemHi {
		return nil, fmt.Errorf("core: mapping model range %s: item range [%d,%d) out of bounds for %d items",
			path, itemLo, itemHi, h.items)
	}

	rr := &MappedModelRange{
		k: int(h.k), users: int(h.users), items: int(h.items),
		lo: itemLo, hi: itemHi, path: path,
	}
	ok := false
	defer func() {
		if !ok {
			for _, w := range rr.windows {
				_ = munmapFile(w)
			}
		}
	}()

	page := uint64(os.Getpagesize())
	// mapAt maps length bytes starting at the (section-interior) byte
	// offset start, rounding the mapping itself down to a page boundary
	// and returning the view beginning at start. The v2 layout aligns
	// sections to v2Align and every slice start is a multiple of the
	// section's element size, so the returned view keeps the element
	// alignment (elem: 8 for float64 sections, 4 for float32) the typed
	// reinterpretations below require.
	mapAt := func(start, length, elem uint64) ([]byte, error) {
		if length == 0 {
			return nil, nil
		}
		aligned := start &^ (page - 1)
		w, err := mmapFileAt(f, int64(aligned), int(start-aligned+length))
		if err != nil {
			return nil, fmt.Errorf("core: mapping model range %s: %w", path, err)
		}
		rr.windows = append(rr.windows, w)
		view := w[start-aligned:]
		if uintptr(unsafe.Pointer(&view[0]))%uintptr(elem) != 0 {
			// Cannot happen (page-aligned mapping base + element-aligned
			// interior offset); checked so the unsafe casts are provably
			// sound.
			return nil, fmt.Errorf("core: mapping model range %s: view base not %d-byte aligned", path, elem)
		}
		return view, nil
	}
	k64 := uint64(h.k)
	lo64, n64 := uint64(itemLo), uint64(itemHi-itemLo)

	// Full user sections.
	if b, err := mapAt(h.layout.off[0], h.users*k64*8, 8); err != nil {
		return nil, err
	} else {
		rr.fu = f64view(b, 0, h.users*k64)
	}
	// Item factor rows [lo, hi): slice the section by row-offset math.
	if b, err := mapAt(h.layout.off[1]+lo64*k64*8, n64*k64*8, 8); err != nil {
		return nil, err
	} else {
		rr.fi = f64view(b, 0, n64*k64)
	}
	if h.bias {
		if b, err := mapAt(h.layout.off[2], h.users*8, 8); err != nil {
			return nil, err
		} else {
			rr.bu = f64view(b, 0, h.users)
		}
		if b, err := mapAt(h.layout.off[3]+lo64*8, n64*8, 8); err != nil {
			return nil, err
		} else {
			rr.bi = f64view(b, 0, n64)
		}
	}
	if h.f32 {
		if b, err := mapAt(h.layout.off[4], h.users*k64*4, 4); err != nil {
			return nil, err
		} else {
			rr.fu32 = f32view(b, 0, h.users*k64)
		}
		if b, err := mapAt(h.layout.off[5]+lo64*k64*4, n64*k64*4, 4); err != nil {
			return nil, err
		} else {
			rr.fi32 = f32view(b, 0, n64*k64)
		}
		if h.bias {
			if b, err := mapAt(h.layout.off[6], h.users*4, 4); err != nil {
				return nil, err
			} else {
				rr.bu32 = f32view(b, 0, h.users)
			}
			if b, err := mapAt(h.layout.off[7]+lo64*4, n64*4, 4); err != nil {
				return nil, err
			} else {
				rr.bi32 = f32view(b, 0, n64)
			}
		}
	}
	ok = true
	windows := rr.windows
	rr.cleanup = runtime.AddCleanup(rr, func(ws [][]byte) {
		for _, w := range ws {
			_ = munmapFile(w)
		}
	}, windows)
	return rr, nil
}

// K returns the number of co-clusters.
func (rr *MappedModelRange) K() int { return rr.k }

// NumUsers returns the full user count of the underlying model.
func (rr *MappedModelRange) NumUsers() int { return rr.users }

// NumItems returns the full catalogue size of the underlying model — not
// the mapped range; see Len for that.
func (rr *MappedModelRange) NumItems() int { return rr.items }

// ItemLo returns the first mapped item (inclusive).
func (rr *MappedModelRange) ItemLo() int { return rr.lo }

// ItemHi returns the end of the mapped item range (exclusive).
func (rr *MappedModelRange) ItemHi() int { return rr.hi }

// Len returns the number of mapped items, ItemHi − ItemLo.
func (rr *MappedModelRange) Len() int { return rr.hi - rr.lo }

// HasBias reports whether the model carries the Section IV-A bias terms.
func (rr *MappedModelRange) HasBias() bool { return rr.bu != nil }

// HasFloat32 reports whether the file carries the float32 factor copy,
// i.e. whether ScoreItems runs the half-bandwidth path.
func (rr *MappedModelRange) HasFloat32() bool { return rr.fu32 != nil }

// String describes the mapped range.
func (rr *MappedModelRange) String() string {
	suffix := ""
	if rr.fu32 != nil {
		suffix = "+f32"
	}
	return fmt.Sprintf("core.MappedModelRange(K=%d, %d users, items [%d,%d) of %d, mmap%s)",
		rr.k, rr.users, rr.lo, rr.hi, rr.items, suffix)
}

// UserFactorF64 returns user u's float64 factor row (a view into the
// mapping; do not modify, invalid after Close). Tests use it to compare
// sliced sections against a full map.
func (rr *MappedModelRange) UserFactorF64(u int) []float64 {
	return rr.fu[u*rr.k : (u+1)*rr.k]
}

// ItemFactorF64 returns the float64 factor row of global item i, which
// must lie in [ItemLo, ItemHi).
func (rr *MappedModelRange) ItemFactorF64(i int) []float64 {
	n := i - rr.lo
	return rr.fi[n*rr.k : (n+1)*rr.k]
}

// ItemFactorF32 returns the float32 factor row of global item i (nil when
// the file has no float32 section).
func (rr *MappedModelRange) ItemFactorF32(i int) []float32 {
	if rr.fi32 == nil {
		return nil
	}
	n := i - rr.lo
	return rr.fi32[n*rr.k : (n+1)*rr.k]
}

// ItemBiasF64 returns the float64 bias of global item i, 0 without bias.
func (rr *MappedModelRange) ItemBiasF64(i int) float64 {
	if rr.bi == nil {
		return 0
	}
	return rr.bi[i-rr.lo]
}

// ScoreItems writes P[r_ui = 1] for every mapped item into dst (length
// Len(); dst[n] scores global item ItemLo+n). With a float32 section it
// streams that section exactly like MappedModel.ScoreUser; otherwise it
// scores the float64 factors exactly like Model.ScoreUser. Either way
// each entry is bit-identical to the corresponding entry a full-map
// server computes for the same file.
func (rr *MappedModelRange) ScoreItems(u int, dst []float64) {
	if rr.fu32 != nil {
		k := rr.k
		var bias float64
		if rr.bu32 != nil {
			bias = float64(rr.bu32[u])
		}
		linalg.ScoreF32(dst, rr.fu32[u*k:(u+1)*k], rr.fi32, rr.bi32, bias)
		runtime.KeepAlive(rr)
		return
	}
	var bias float64
	if rr.bu != nil {
		bias = rr.bu[u]
	}
	rr.ScoreItemsWithFactor(rr.fu[u*rr.k:(u+1)*rr.k], bias, dst)
}

// ScoreItemsWithFactor scores every mapped item against an explicit
// float64 user factor and bias, through the exact float64 item factors —
// the same per-item arithmetic as Model.ScoreWithFactor.
func (rr *MappedModelRange) ScoreItemsWithFactor(fu []float64, bias float64, dst []float64) {
	k := rr.k
	for n := 0; n < rr.hi-rr.lo; n++ {
		z := linalg.Dot(fu, rr.fi[n*k:(n+1)*k]) + bias
		if rr.bi != nil {
			z += rr.bi[n]
		}
		dst[n] = 1 - math.Exp(-z)
	}
	runtime.KeepAlive(rr)
}

// Close releases the mappings eagerly. Every view into the range is
// invalid afterwards; like MappedModel.Close it must not race in-flight
// scoring — serving code should drop the reference and let GC release it.
func (rr *MappedModelRange) Close() error {
	if rr.windows == nil {
		return nil
	}
	rr.cleanup.Stop()
	windows := rr.windows
	rr.windows = nil
	rr.fu, rr.fi, rr.bu, rr.bi = nil, nil, nil, nil
	rr.fu32, rr.fi32, rr.bu32, rr.bi32 = nil, nil, nil, nil
	var first error
	for _, w := range windows {
		if err := munmapFile(w); err != nil && first == nil {
			first = err
		}
	}
	return first
}

package gridcube

import (
	"rankcube/internal/table"
)

// Incremental maintenance for the grid ranking cube (thesis §1.3.1): "for
// grid partition, one can temporally allocate new data according to
// pre-computed blocks, and re-partition the data periodically". Inserts
// place tuples into the existing equi-depth blocks (boundaries unchanged)
// and append to the affected cuboid cells; Repartition rebuilds the cube
// from scratch when drift accumulates. Deletions tombstone tuples until the
// next repartition.

// Insert appends a tuple to the relation and registers it in the base block
// table and every cuboid, using the pre-computed partition boundaries.
func (c *Cube) Insert(sel []int32, rank []float64) table.TID {
	tid := c.t.Append(sel, rank)
	rankCopy := append([]float64(nil), rank...)
	bid := c.meta.BlockOf(rankCopy)

	// Base block table: append and grow the block's page run.
	bt := c.blocks
	bt.blocks[bid] = append(bt.blocks[bid], blockEntry{tid: tid, rank: rankCopy})
	rowBytes := 4 + 8*c.meta.R
	if page, ok := bt.pages[bid]; ok {
		bt.store.Resize(page, len(bt.blocks[bid])*rowBytes)
	} else {
		bt.pages[bid] = bt.store.AppendLogical(rowBytes)
	}

	// Cuboids: append to the overflow list of the affected cell.
	for _, cb := range c.cuboids {
		vals := make([]int32, len(cb.dims))
		for j, d := range cb.dims {
			vals[j] = sel[d]
		}
		key := cb.cellKey(vals, cb.PseudoOf(bid))
		if cb.extra == nil {
			cb.extra = make(map[uint64][]Entry)
		}
		cb.extra[key] = append(cb.extra[key], Entry{TID: tid, BID: bid})
		if ref, ok := cb.cells[key]; ok {
			cb.store.Resize(ref.page, int(ref.n)*8+len(cb.extra[key])*8)
		} else {
			cb.cells[key] = cellRef{off: 0, n: 0, page: cb.store.AppendLogical(8)}
		}
	}
	c.inserted++
	return tid
}

// Delete tombstones a tuple: it stops appearing in query results
// immediately and is physically removed at the next Repartition. It reports
// whether the tuple existed and was not already deleted.
func (c *Cube) Delete(tid table.TID) bool {
	if tid < 0 || int(tid) >= c.t.Len() || c.tombstones[tid] {
		return false
	}
	if c.tombstones == nil {
		c.tombstones = make(map[table.TID]bool)
	}
	c.tombstones[tid] = true
	return true
}

// Alive reports whether tid is not tombstoned. Deleted tuples keep their
// relation row until the next Repartition, so exact scans of the relation
// must consult this.
func (c *Cube) Alive(tid table.TID) bool { return !c.tombstones[tid] }

// PendingMaintenance reports how much drift has accumulated: tuples
// inserted since the last repartition plus tombstones. Callers repartition
// when this grows past their threshold (the thesis' "periodically").
func (c *Cube) PendingMaintenance() int {
	return c.inserted + len(c.tombstones)
}

// Repartition rebuilds the cube in place over the surviving tuples:
// boundaries are recomputed (restoring equi-depth balance), overflow lists
// fold into the cells, and tombstoned tuples vanish. Tuple ids change when
// deletions occurred; the mapping from old to new ids is returned (nil when
// no tuple moved).
func (c *Cube) Repartition() map[table.TID]table.TID {
	var remap map[table.TID]table.TID
	source := c.t
	if len(c.tombstones) > 0 {
		remap = make(map[table.TID]table.TID)
		compact := table.MustNew(source.Schema())
		selBuf := make([]int32, source.Schema().S())
		rankBuf := make([]float64, source.Schema().R())
		for i := 0; i < source.Len(); i++ {
			old := table.TID(i)
			if c.tombstones[old] {
				continue
			}
			newID := compact.Append(source.SelRow(old, selBuf), source.RankRow(old, rankBuf))
			remap[old] = newID
		}
		source = compact
	}
	rebuilt := Build(source, c.cfg)
	// Adopt the rebuilt state field by field, deliberately NOT touching
	// c.ctl: the serving control outlives every rebuild (callers hold it
	// exclusively right now, the API boundary reads the pointer without
	// synchronization, and long-lived references to it must stay valid).
	c.t = rebuilt.t
	c.meta = rebuilt.meta
	c.blocks = rebuilt.blocks
	c.cuboids = rebuilt.cuboids
	c.groups = rebuilt.groups
	c.tombstones = rebuilt.tombstones
	c.inserted = rebuilt.inserted
	c.cfg = rebuilt.cfg
	return remap
}

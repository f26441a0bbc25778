package sqldb

import (
	"fmt"
	"slices"
)

// slotsInStep checks that every cached page with a slot table holds the
// table a fresh index of its image builds, and is zero behind its last cell.
func (p *pager) slotsInStep() error {
	var fresh cpage
	for no, pg := range p.pages {
		if pg == nil || len(pg.slots) == 0 {
			continue
		}
		fresh.buf = pg.buf
		if err := fresh.index(); err != nil {
			return fmt.Errorf("page %d: %w", no, err)
		}
		if !slices.Equal(pg.slots, fresh.slots) {
			return fmt.Errorf("page %d: slot table %v, its image indexes to %v", no, pg.slots, fresh.slots)
		}
		if i := slices.IndexFunc(pg.buf[fresh.end():], func(b byte) bool { return b != 0 }); i >= 0 {
			return fmt.Errorf("page %d: byte %d behind the last cell is not zero", no, fresh.end()+i)
		}
	}
	return nil
}

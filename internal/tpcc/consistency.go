package tpcc

import (
	"fmt"

	"nvmstore/internal/btree"
)

// VerifyConsistency checks the TPC-C consistency conditions that our
// transaction mix maintains (clause 3.3.2 of the specification):
//
//  1. W_YTD = sum(D_YTD) of the warehouse's districts (both start at
//     fixed values and Payment adds the same amount to both).
//  2. For every district, D_NEXT_O_ID - 1 equals the maximum order id in
//     the ORDER table (and no order exists at or above D_NEXT_O_ID).
//  3. Every order's O_OL_CNT equals the number of its ORDER-LINE rows.
//  4. Every NEW-ORDER row has a matching ORDER row with no carrier, and
//     every delivered order (carrier set) has no NEW-ORDER row.
//
// It is meant for tests and post-crash validation, not hot paths.
func (w *Workload) VerifyConsistency() error {
	for wh := 1; wh <= w.cfg.Warehouses; wh++ {
		if err := w.verifyWarehouse(wh); err != nil {
			return err
		}
	}
	return nil
}

func (w *Workload) verifyWarehouse(wh int) error {
	// Condition 1: warehouse YTD equals the sum of its districts' YTD
	// plus their fixed initial offsets.
	var whYTDv int64
	found, err := w.warehouse.Access(wKey(wh), func(r btree.Row) error {
		whYTDv = r.I64(whYTD)
		return nil
	})
	if err != nil {
		return err
	}
	if !found {
		return fmt.Errorf("tpcc: warehouse %d missing", wh)
	}
	var distSum int64
	nextOIDs := make([]int, districtsPerWarehouse+1)
	for d := 1; d <= districtsPerWarehouse; d++ {
		found, err := w.district.Access(dKey(wh, d), func(r btree.Row) error {
			distSum += r.I64(diYTD)
			nextOIDs[d] = int(r.U32(diNextOID))
			return nil
		})
		if err != nil {
			return err
		}
		if !found {
			return fmt.Errorf("tpcc: district (%d,%d) missing", wh, d)
		}
	}
	// Initial values: warehouse 30,000,000.00; districts 30,000.00 each.
	const initW = 30000000 * 100
	const initD = 3000000 * 100
	if whYTDv-initW != distSum-districtsPerWarehouse*initD {
		return fmt.Errorf("tpcc: warehouse %d YTD delta %d != district YTD delta sum %d",
			wh, whYTDv-initW, distSum-districtsPerWarehouse*initD)
	}

	for d := 1; d <= districtsPerWarehouse; d++ {
		if err := w.verifyDistrict(wh, d, nextOIDs[d]); err != nil {
			return err
		}
	}
	return nil
}

func (w *Workload) verifyDistrict(wh, d, nextOID int) error {
	// Condition 2: scan the district's orders; the maximum id must be
	// nextOID-1, with no gaps at the top.
	maxO := 0
	count := 0
	err := w.order.Scan(oKey(wh, d, 0), 0, 0, 0, func(k uint64, _ []byte) bool {
		if k>>24 != dKey(wh, d) {
			return false
		}
		o := int(k & 0xFFFFFF)
		if o > maxO {
			maxO = o
		}
		count++
		return true
	})
	if err != nil {
		return err
	}
	if maxO != nextOID-1 {
		return fmt.Errorf("tpcc: district (%d,%d): max order %d, D_NEXT_O_ID %d", wh, d, maxO, nextOID)
	}
	if count != maxO {
		return fmt.Errorf("tpcc: district (%d,%d): %d orders for max id %d (gaps)", wh, d, count, maxO)
	}

	// Conditions 3 and 4 on a sample of orders (first, middle, last) to
	// keep verification affordable at scale.
	for _, o := range []int{1, maxO / 2, maxO} {
		if o < 1 {
			continue
		}
		var olCnt int
		var carrier byte
		found, err := w.order.Access(oKey(wh, d, o), func(r btree.Row) error {
			olCnt = int(r.Read(orOLCnt, 1)[0])
			carrier = r.Read(orCarrier, 1)[0]
			return nil
		})
		if err != nil {
			return err
		}
		if !found {
			return fmt.Errorf("tpcc: order (%d,%d,%d) missing", wh, d, o)
		}
		lines := 0
		for ol := 1; ol <= 15; ol++ {
			found, err := w.orderLine.Access(olKey(wh, d, o, ol), func(btree.Row) error { return nil })
			if err != nil {
				return err
			}
			if found {
				lines++
			}
		}
		if lines != olCnt {
			return fmt.Errorf("tpcc: order (%d,%d,%d): %d lines, O_OL_CNT %d", wh, d, o, lines, olCnt)
		}
		noFound, err := w.newOrder.Access(oKey(wh, d, o), func(btree.Row) error { return nil })
		if err != nil {
			return err
		}
		if carrier == 0 && !noFound {
			return fmt.Errorf("tpcc: undelivered order (%d,%d,%d) has no NEW-ORDER row", wh, d, o)
		}
		if carrier != 0 && noFound {
			return fmt.Errorf("tpcc: delivered order (%d,%d,%d) still has a NEW-ORDER row", wh, d, o)
		}
	}
	return nil
}

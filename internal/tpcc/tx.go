package tpcc

import (
	"bytes"
	"fmt"
	"sort"

	"nvmstore/internal/btree"
)

// NextTransaction executes one transaction drawn from the standard TPC-C
// mix: 45% New-Order, 43% Payment, 4% Order-Status, 4% Delivery, 4%
// Stock-Level.
func (w *Workload) NextTransaction() error {
	switch x := w.rng.intn(100); {
	case x < 45:
		return w.NewOrder()
	case x < 88:
		return w.Payment()
	case x < 92:
		return w.OrderStatus()
	case x < 96:
		return w.Delivery()
	default:
		return w.StockLevel()
	}
}

// errNotFound signals an unexpectedly missing row (database corruption).
func errNotFound(table string, key uint64) error {
	return fmt.Errorf("tpcc: %s row %#x missing", table, key)
}

// homeW picks a uniformly random home warehouse: the specification's
// uniform(1, W) draw.
func (w *Workload) homeW() int {
	return w.rng.uniform(1, w.cfg.Warehouses)
}

// NewOrder runs the New-Order transaction: enter an order of 5-15 lines,
// updating the district's order counter and each line's stock. One
// percent of orders carry an invalid item and roll back, per the
// specification.
func (w *Workload) NewOrder() error {
	r := &w.rng
	cfg := w.cfg
	wh := w.homeW()
	d := r.uniform(1, districtsPerWarehouse)
	c := r.nuRand(1023, cID, 1, cfg.CustomersPerDistrict)
	olCnt := r.uniform(5, 15)
	rollback := r.intn(100) == 0
	w.now++

	w.e.Begin()

	// Warehouse tax (read-only).
	var whTaxRate int32
	found, err := w.warehouse.Access(wKey(wh), func(row btree.Row) error {
		whTaxRate = int32(row.U32(whTax))
		return nil
	})
	if err != nil {
		return err
	}
	if !found {
		return errNotFound("warehouse", wKey(wh))
	}

	// District: read tax, take and increment the order id.
	var dTaxRate int32
	var oID int
	found, err = w.district.Access(dKey(wh, d), func(row btree.Row) error {
		dTaxRate = int32(row.U32(diTax))
		oID = int(row.U32(diNextOID))
		var b [4]byte
		putU32(b[:], 0, uint32(oID+1))
		return row.Update(diNextOID, b[:])
	})
	if err != nil {
		return err
	}
	if !found {
		return errNotFound("district", dKey(wh, d))
	}

	// Customer discount (read-only).
	var discount int32
	found, err = w.customer.Access(cKey(wh, d, c), func(row btree.Row) error {
		discount = int32(row.U32(cuDiscount))
		return nil
	})
	if err != nil {
		return err
	}
	if !found {
		return errNotFound("customer", cKey(wh, d, c))
	}

	// Insert the order, new-order, and customer-order index rows.
	orow := make([]byte, orderSize)
	putU32(orow, orCustomer, uint32(c))
	putI64(orow, orEntryD, w.now)
	orow[orOLCnt] = byte(olCnt)
	orow[orAllLocal] = 1
	if err := w.order.Insert(oKey(wh, d, oID), orow); err != nil {
		return err
	}
	if err := w.newOrder.Insert(oKey(wh, d, oID), make([]byte, newOrderSize)); err != nil {
		return err
	}
	iRow := make([]byte, indexSize)
	putU32(iRow, 0, uint32(oID))
	if err := w.custOrder.Insert(custOrderKey(wh, d, c, oID), iRow); err != nil {
		return err
	}

	total := int64(0)
	olRow := make([]byte, orderLineSize)
	var distInfo [24]byte
	for ol := 1; ol <= olCnt; ol++ {
		var item int
		if rollback && ol == olCnt {
			item = cfg.Items + 1 // unused item: forces rollback
		} else {
			item = r.nuRand(8191, cItem, 1, cfg.Items)
		}
		var price int64
		found, err := w.item.Access(iKey(item), func(row btree.Row) error {
			price = row.I64(itPrice)
			return nil
		})
		if err != nil {
			return err
		}
		if !found {
			// Invalid item: the specification requires rolling the whole
			// order back.
			if err := w.e.Rollback(); err != nil {
				return err
			}
			w.stats.NewOrderRbk++
			return nil
		}

		supplyW := wh
		if w.cfg.Warehouses > 1 && r.intn(100) == 0 {
			for supplyW == wh {
				supplyW = w.homeW()
			}
			orow[orAllLocal] = 0
		}
		qty := r.uniform(1, 10)
		found, err = w.stock.Access(sKey(supplyW, item), func(row btree.Row) error {
			q := int(row.U32(stQuantity))
			if q-qty >= 10 {
				q -= qty
			} else {
				q += 91 - qty
			}
			var b [4]byte
			putU32(b[:], 0, uint32(q))
			if err := row.Update(stQuantity, b[:]); err != nil {
				return err
			}
			var meta [12]byte
			putI64(meta[:], 0, row.I64(stYTD)+int64(qty))
			putU16(meta[:], 8, row.U16(stOrderCnt)+1)
			remote := row.U16(stRemoteCnt)
			if supplyW != wh {
				remote++
			}
			putU16(meta[:], 10, remote)
			if err := row.Update(stYTD, meta[:]); err != nil {
				return err
			}
			row.Get(stDist+(d-1)*24, 24, distInfo[:])
			return nil
		})
		if err != nil {
			return err
		}
		if !found {
			return errNotFound("stock", sKey(supplyW, item))
		}

		amount := int64(qty) * price
		total += amount
		for i := range olRow {
			olRow[i] = 0
		}
		putU32(olRow, olItem, uint32(item))
		putU32(olRow, olSupplyW, uint32(supplyW))
		olRow[olQuantity] = byte(qty)
		putI64(olRow, olAmount, amount)
		copy(olRow[olDistInfo:], distInfo[:])
		if err := w.orderLine.Insert(olKey(wh, d, oID, ol), olRow); err != nil {
			return err
		}
	}
	_ = total * int64(10000+int(whTaxRate)+int(dTaxRate)) * int64(10000-int(discount)) // order total with taxes and discount

	if err := w.e.Commit(); err != nil {
		return err
	}
	w.stats.NewOrder++
	return nil
}

// customerByName resolves the 60% by-last-name customer selection: collect
// the customers sharing the chosen last name via the name index, read
// their first names, and pick the middle one in first-name order.
func (w *Workload) customerByName(wh, d, nameIdx int) (int, error) {
	prefix := dKey(wh, d)<<28 | uint64(nameIdx)<<12
	var ids []int
	err := w.custName.Scan(prefix, 0, 0, 0, func(k uint64, _ []byte) bool {
		if k>>12 != prefix>>12 {
			return false
		}
		ids = append(ids, int(k&0xFFF))
		return true
	})
	if err != nil {
		return 0, err
	}
	if len(ids) == 0 {
		return 0, nil
	}
	type cand struct {
		id    int
		first [16]byte
	}
	cands := make([]cand, len(ids))
	for i, id := range ids {
		cands[i].id = id
		found, err := w.customer.Access(cKey(wh, d, id), func(row btree.Row) error {
			row.Get(cuFirst, 16, cands[i].first[:])
			return nil
		})
		if err != nil {
			return 0, err
		}
		if !found {
			return 0, errNotFound("customer", cKey(wh, d, id))
		}
	}
	sort.Slice(cands, func(a, b int) bool {
		return bytes.Compare(cands[a].first[:], cands[b].first[:]) < 0
	})
	return cands[(len(cands)+1)/2-1].id, nil
}

// Payment runs the Payment transaction: record a customer payment,
// updating warehouse, district, and customer balances and appending a
// history row. 60% of customers are selected by last name.
func (w *Workload) Payment() error {
	r := &w.rng
	cfg := w.cfg
	wh := w.homeW()
	d := r.uniform(1, districtsPerWarehouse)
	// 15% of payments come through a remote warehouse.
	cw, cd := wh, d
	if w.cfg.Warehouses > 1 && r.intn(100) < 15 {
		for cw == wh {
			cw = w.homeW()
		}
		cd = r.uniform(1, districtsPerWarehouse)
	}
	amount := int64(r.uniform(100, 500000)) // cents
	w.now++

	w.e.Begin()
	var c int
	if r.intn(100) < 60 {
		nameIdx := r.nuRand(255, cLast, 0, 999)
		var err error
		c, err = w.customerByName(cw, cd, nameIdx)
		if err != nil {
			return err
		}
	}
	if c == 0 {
		c = r.nuRand(1023, cID, 1, cfg.CustomersPerDistrict)
	}

	found, err := w.warehouse.Access(wKey(wh), func(row btree.Row) error {
		var b [8]byte
		putI64(b[:], 0, row.I64(whYTD)+amount)
		return row.Update(whYTD, b[:])
	})
	if err != nil {
		return err
	}
	if !found {
		return errNotFound("warehouse", wKey(wh))
	}
	found, err = w.district.Access(dKey(wh, d), func(row btree.Row) error {
		var b [8]byte
		putI64(b[:], 0, row.I64(diYTD)+amount)
		return row.Update(diYTD, b[:])
	})
	if err != nil {
		return err
	}
	if !found {
		return errNotFound("district", dKey(wh, d))
	}

	found, err = w.customer.Access(cKey(cw, cd, c), func(row btree.Row) error {
		var b [20]byte
		putI64(b[:], 0, row.I64(cuBalance)-amount)
		putI64(b[:], 8, row.I64(cuYTDPayment)+amount)
		putU16(b[:], 16, row.U16(cuPaymentCnt)+1)
		putU16(b[:], 18, row.U16(cuDeliveryCnt))
		if err := row.Update(cuBalance, b[:]); err != nil {
			return err
		}
		credit := row.Read(cuCredit, 2)
		if credit[0] == 'B' && credit[1] == 'C' {
			// Bad credit: prepend payment info to the customer data
			// field (the specification keeps the first 500 bytes).
			var data [200]byte
			row.Get(cuData, 200, data[:])
			var updated [200]byte
			n := copy(updated[:], fmt.Sprintf("%d %d %d %d %d %d|", c, cd, cw, d, wh, amount))
			copy(updated[n:], data[:200-n])
			return row.Update(cuData, updated[:])
		}
		return nil
	})
	if err != nil {
		return err
	}
	if !found {
		return errNotFound("customer", cKey(cw, cd, c))
	}

	hrow := make([]byte, historySize)
	putU32(hrow, hiCustomer, uint32(c))
	putU32(hrow, hiCustD, uint32(cd))
	putU32(hrow, hiCustW, uint32(cw))
	putU32(hrow, hiD, uint32(d))
	putU32(hrow, hiW, uint32(wh))
	putI64(hrow, hiDate, w.now)
	putI64(hrow, hiAmount, amount)
	if err := w.history.Insert(w.historySeq, hrow); err != nil {
		return err
	}
	w.historySeq++

	if err := w.e.Commit(); err != nil {
		return err
	}
	w.stats.Payment++
	return nil
}

// OrderStatus runs the read-only Order-Status transaction: report a
// customer's balance and the lines of their most recent order.
func (w *Workload) OrderStatus() error {
	r := &w.rng
	cfg := w.cfg
	wh := w.homeW()
	d := r.uniform(1, districtsPerWarehouse)

	w.e.Begin()
	var c int
	if r.intn(100) < 60 {
		nameIdx := r.nuRand(255, cLast, 0, 999)
		var err error
		c, err = w.customerByName(wh, d, nameIdx)
		if err != nil {
			return err
		}
	}
	if c == 0 {
		c = r.nuRand(1023, cID, 1, cfg.CustomersPerDistrict)
	}

	found, err := w.customer.Access(cKey(wh, d, c), func(row btree.Row) error {
		_ = row.I64(cuBalance)
		_ = row.Read(cuFirst, 16+2+16) // first, middle, last
		return nil
	})
	if err != nil {
		return err
	}
	if !found {
		return errNotFound("customer", cKey(wh, d, c))
	}

	// Latest order via the customer-order index (inverted order ids:
	// the first index entry is the newest order).
	prefix := cKey(wh, d, c) << 24
	oID := 0
	err = w.custOrder.Scan(prefix, 1, 0, 4, func(k uint64, field []byte) bool {
		if k>>24 == prefix>>24 {
			oID = int(getU32(field, 0))
		}
		return false
	})
	if err != nil {
		return err
	}
	if oID == 0 {
		// Customer without orders (possible at tiny scale factors).
		w.stats.OrderStatus++
		return w.e.Commit()
	}

	var olCnt int
	found, err = w.order.Access(oKey(wh, d, oID), func(row btree.Row) error {
		olCnt = int(row.Read(orOLCnt, 1)[0])
		return nil
	})
	if err != nil {
		return err
	}
	if !found {
		return errNotFound("order", oKey(wh, d, oID))
	}
	for ol := 1; ol <= olCnt; ol++ {
		if _, err := w.orderLine.Access(olKey(wh, d, oID, ol), func(row btree.Row) error {
			_ = row.U32(olItem)
			_ = row.I64(olAmount)
			return nil
		}); err != nil {
			return err
		}
	}
	if err := w.e.Commit(); err != nil {
		return err
	}
	w.stats.OrderStatus++
	return nil
}

// Delivery runs the Delivery transaction: for each district, deliver the
// oldest undelivered order — delete its new-order row, stamp the carrier
// and delivery dates, and credit the customer.
func (w *Workload) Delivery() error {
	r := &w.rng
	wh := w.homeW()
	carrier := byte(r.uniform(1, 10))
	w.now++

	w.e.Begin()
	for d := 1; d <= districtsPerWarehouse; d++ {
		// Oldest new order of this district.
		var noKey uint64
		err := w.newOrder.Scan(oKey(wh, d, 0), 1, 0, 0, func(k uint64, _ []byte) bool {
			if k>>24 == dKey(wh, d) {
				noKey = k
			}
			return false
		})
		if err != nil {
			return err
		}
		if noKey == 0 {
			continue // district fully delivered
		}
		oID := int(noKey & 0xFFFFFF)
		if _, err := w.newOrder.Delete(noKey); err != nil {
			return err
		}

		var c, olCnt int
		found, err := w.order.Access(noKey, func(row btree.Row) error {
			c = int(row.U32(orCustomer))
			olCnt = int(row.Read(orOLCnt, 1)[0])
			return row.Update(orCarrier, []byte{carrier})
		})
		if err != nil {
			return err
		}
		if !found {
			return errNotFound("order", noKey)
		}

		total := int64(0)
		for ol := 1; ol <= olCnt; ol++ {
			found, err := w.orderLine.Access(olKey(wh, d, oID, ol), func(row btree.Row) error {
				total += row.I64(olAmount)
				var b [8]byte
				putI64(b[:], 0, w.now)
				return row.Update(olDeliveryD, b[:])
			})
			if err != nil {
				return err
			}
			if !found {
				return errNotFound("order line", olKey(wh, d, oID, ol))
			}
		}

		found, err = w.customer.Access(cKey(wh, d, c), func(row btree.Row) error {
			var b [8]byte
			putI64(b[:], 0, row.I64(cuBalance)+total)
			if err := row.Update(cuBalance, b[:]); err != nil {
				return err
			}
			var dc [2]byte
			putU16(dc[:], 0, row.U16(cuDeliveryCnt)+1)
			return row.Update(cuDeliveryCnt, dc[:])
		})
		if err != nil {
			return err
		}
		if !found {
			return errNotFound("customer", cKey(wh, d, c))
		}
	}
	if err := w.e.Commit(); err != nil {
		return err
	}
	w.stats.Delivery++
	return nil
}

// StockLevel runs the read-only Stock-Level transaction: count the
// distinct items of a district's last 20 orders whose stock is below a
// threshold.
func (w *Workload) StockLevel() error {
	r := &w.rng
	wh := w.homeW()
	d := r.uniform(1, districtsPerWarehouse)
	threshold := int32(r.uniform(10, 20))

	w.e.Begin()
	var nextOID int
	found, err := w.district.Access(dKey(wh, d), func(row btree.Row) error {
		nextOID = int(row.U32(diNextOID))
		return nil
	})
	if err != nil {
		return err
	}
	if !found {
		return errNotFound("district", dKey(wh, d))
	}

	low := nextOID - 20
	if low < 1 {
		low = 1
	}
	items := make(map[uint32]struct{})
	err = w.orderLine.Scan(olKey(wh, d, low, 0), 0, olItem, 4, func(k uint64, field []byte) bool {
		if olKeyOrder(k)>>24 != dKey(wh, d) || int(olKeyOrder(k)&0xFFFFFF) >= nextOID {
			return false
		}
		items[getU32(field, 0)] = struct{}{}
		return true
	})
	if err != nil {
		return err
	}

	lowStock := 0
	for item := range items {
		found, err := w.stock.Access(sKey(wh, int(item)), func(row btree.Row) error {
			if int32(row.U32(stQuantity)) < threshold {
				lowStock++
			}
			return nil
		})
		if err != nil {
			return err
		}
		if !found {
			return errNotFound("stock", sKey(wh, int(item)))
		}
	}
	if err := w.e.Commit(); err != nil {
		return err
	}
	w.stats.StockLevel++
	return nil
}

package tpcc

import (
	"fmt"
	"sort"

	"nvmstore/internal/btree"
	"nvmstore/internal/engine"
	"nvmstore/internal/shard"
)

// Config scales the generated database. The zero value of any field
// selects the TPC-C specification's cardinality.
type Config struct {
	// Warehouses is the scale factor W. Must be >= 1.
	Warehouses int
	// Items is the size of the shared item table (spec: 100,000).
	Items int
	// CustomersPerDistrict (spec: 3,000).
	CustomersPerDistrict int
	// InitialOrdersPerDistrict (spec: 3,000, of which the last 900 are
	// undelivered new orders).
	InitialOrdersPerDistrict int
	// Seed makes the workload deterministic.
	Seed uint64
}

func (c *Config) applyDefaults() {
	if c.Items == 0 {
		c.Items = 100000
	}
	if c.CustomersPerDistrict == 0 {
		c.CustomersPerDistrict = 3000
	}
	if c.InitialOrdersPerDistrict == 0 {
		c.InitialOrdersPerDistrict = 3000
	}
	if c.Seed == 0 {
		c.Seed = 0x7070CC
	}
}

// DataBytes estimates the loaded data size (tree footprint at the 0.66
// fill factor) of a database with this configuration; it drives the
// "data size" axis of the paper's Figure 9.
func (c Config) DataBytes() int64 {
	c.applyDefaults()
	perDistrict := int64(c.CustomersPerDistrict)*(customerSize+historySize+2*indexSize+16) +
		int64(c.InitialOrdersPerDistrict)*(orderSize+8+10*(orderLineSize+8))
	perWarehouse := warehouseSize + districtsPerWarehouse*(districtSize+perDistrict) +
		int64(c.Items)*(stockSize+8)
	total := int64(c.Items)*(itemSize+8) + int64(c.Warehouses)*perWarehouse
	return total * 3 / 2 // fill factor 0.66
}

// Stats counts executed transactions by profile.
type Stats struct {
	NewOrder    int64
	NewOrderRbk int64 // 1% intentional rollbacks
	Payment     int64
	OrderStatus int64
	Delivery    int64
	StockLevel  int64
}

// Total returns the number of completed transactions (including the
// intentional rollbacks, which TPC-C counts as executed).
func (s Stats) Total() int64 {
	return s.NewOrder + s.NewOrderRbk + s.Payment + s.OrderStatus + s.Delivery + s.StockLevel
}

// Workload drives TPC-C transactions against one engine, which holds
// warehouses 1..Config.Warehouses.
type Workload struct {
	e   *engine.Engine
	cfg Config
	rng rng

	warehouse *btree.Tree
	district  *btree.Tree
	customer  *btree.Tree
	history   *btree.Tree
	newOrder  *btree.Tree
	order     *btree.Tree
	orderLine *btree.Tree
	item      *btree.Tree
	stock     *btree.Tree
	custName  *btree.Tree
	custOrder *btree.Tree

	historySeq uint64
	now        int64 // logical timestamp, advanced per transaction

	stats Stats
}

// Stats returns the transaction counters.
func (w *Workload) Stats() Stats { return w.stats }

// Engine returns the underlying engine.
func (w *Workload) Engine() *engine.Engine { return w.e }

// Config returns the workload configuration with defaults applied.
func (w *Workload) Config() Config { return w.cfg }

// rng is a SplitMix64 stream with the TPC-C helper distributions.
type rng struct{ shard.Stream }

// intn returns a uniform int in [0, n).
func (r *rng) intn(n int) int { return int(r.Next() % uint64(n)) }

// uniform returns a uniform int in [lo, hi] inclusive.
func (r *rng) uniform(lo, hi int) int { return lo + r.intn(hi-lo+1) }

// NURand constants, fixed per run as the specification allows.
const (
	cLast = 123
	cID   = 259
	cItem = 7911
)

// nuRand is the TPC-C non-uniform random function NURand(A, x, y).
func (r *rng) nuRand(a, c, x, y int) int {
	return (((r.uniform(0, a) | r.uniform(x, y)) + c) % (y - x + 1)) + x
}

// Last-name syllables from the specification.
var nameSyllables = [10]string{
	"BAR", "OUGHT", "ABLE", "PRI", "PRES", "ESE", "ANTI", "CALLY", "ATION", "EING",
}

// lastName builds the three-syllable last name for a name number 0..999.
func lastName(num int, dst []byte) {
	s := nameSyllables[num/100] + nameSyllables[num/10%10] + nameSyllables[num%10]
	for i := range dst {
		dst[i] = 0
	}
	copy(dst, s)
}

// lastNameIdx returns the name number (0..999) used for customer c during
// loading: the first up-to-1000 customers cover each name number once,
// later customers draw from the NURand(255) distribution.
func (w *Workload) lastNameIdx(c int, r *rng) int {
	if c <= 1000 {
		return c - 1
	}
	return r.nuRand(255, cLast, 0, 999)
}

// fillString writes a deterministic filler pattern.
func fillString(dst []byte, seed uint64) {
	for i := range dst {
		dst[i] = 'A' + byte((seed+uint64(i)*131)%26)
	}
}

// New creates the TPC-C schema in e and loads the initial database per
// the configuration, then checkpoints. The random stream is seeded from
// Config.Seed.
func New(e *engine.Engine, cfg Config) (*Workload, error) {
	cfg.applyDefaults()
	if cfg.Warehouses < 1 {
		return nil, fmt.Errorf("tpcc: need at least one warehouse")
	}
	w := &Workload{e: e, cfg: cfg, rng: rng{shard.Stream(cfg.Seed)}, now: 1}
	create := func(id uint64, size int) (*btree.Tree, error) {
		return e.CreateTree(id, size, btree.LayoutSorted)
	}
	var err error
	if w.warehouse, err = create(TableWarehouse, warehouseSize); err != nil {
		return nil, err
	}
	if w.district, err = create(TableDistrict, districtSize); err != nil {
		return nil, err
	}
	if w.customer, err = create(TableCustomer, customerSize); err != nil {
		return nil, err
	}
	if w.history, err = create(TableHistory, historySize); err != nil {
		return nil, err
	}
	if w.newOrder, err = create(TableNewOrder, newOrderSize); err != nil {
		return nil, err
	}
	if w.order, err = create(TableOrder, orderSize); err != nil {
		return nil, err
	}
	if w.orderLine, err = create(TableOrderLine, orderLineSize); err != nil {
		return nil, err
	}
	if w.item, err = create(TableItem, itemSize); err != nil {
		return nil, err
	}
	if w.stock, err = create(TableStock, stockSize); err != nil {
		return nil, err
	}
	if w.custName, err = create(IndexCustomerName, indexSize); err != nil {
		return nil, err
	}
	if w.custOrder, err = create(IndexCustomerOrder, indexSize); err != nil {
		return nil, err
	}
	if err := w.load(); err != nil {
		return nil, fmt.Errorf("tpcc: load: %w", err)
	}
	if err := e.Checkpoint(); err != nil {
		return nil, err
	}
	return w, nil
}

// Attach reopens a previously loaded workload (after a restart). Its
// random stream is seeded from Config.Seed+1, so it does not replay the
// transactions run before the restart.
func Attach(e *engine.Engine, cfg Config) (*Workload, error) {
	cfg.applyDefaults()
	if cfg.Warehouses < 1 {
		return nil, fmt.Errorf("tpcc: need at least one warehouse")
	}
	w := &Workload{e: e, cfg: cfg, rng: rng{shard.Stream(cfg.Seed + 1)}, now: 1 << 20}
	for _, bind := range []struct {
		id  uint64
		dst **btree.Tree
	}{
		{TableWarehouse, &w.warehouse}, {TableDistrict, &w.district},
		{TableCustomer, &w.customer}, {TableHistory, &w.history},
		{TableNewOrder, &w.newOrder}, {TableOrder, &w.order},
		{TableOrderLine, &w.orderLine}, {TableItem, &w.item},
		{TableStock, &w.stock}, {IndexCustomerName, &w.custName},
		{IndexCustomerOrder, &w.custOrder},
	} {
		t := e.Tree(bind.id)
		if t == nil {
			return nil, fmt.Errorf("tpcc: engine missing tree %d", bind.id)
		}
		*bind.dst = t
	}
	n, err := w.history.Count()
	if err != nil {
		return nil, err
	}
	w.historySeq = uint64(n) + 1
	return w, nil
}

// sortedLoad bulk-loads pre-collected (key, row) pairs after sorting them.
func sortedLoad(t *btree.Tree, keys []uint64, rows [][]byte, fill float64) error {
	idx := make([]int, len(keys))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return keys[idx[a]] < keys[idx[b]] })
	return t.BulkLoad(len(keys),
		func(i int) uint64 { return keys[idx[i]] },
		func(i int, dst []byte) { copy(dst, rows[idx[i]]) },
		fill)
}

// load generates and bulk-loads the initial database.
func (w *Workload) load() error {
	cfg := w.cfg
	r := &w.rng
	const fill = 0.66

	// Items.
	if err := w.item.BulkLoad(cfg.Items,
		func(i int) uint64 { return iKey(i + 1) },
		func(i int, dst []byte) {
			putU32(dst, itImage, uint32(r.uniform(1, 10000)))
			putI64(dst, itPrice, int64(r.uniform(100, 10000)))
			fillString(dst[itName:itName+24], uint64(i)*7)
			fillString(dst[itData:itData+50], uint64(i)*13)
			if r.intn(10) == 0 {
				copy(dst[itData+10:], "ORIGINAL")
			}
		}, fill); err != nil {
		return err
	}

	// Warehouses.
	if err := w.warehouse.BulkLoad(cfg.Warehouses,
		func(i int) uint64 { return wKey(i + 1) },
		func(i int, dst []byte) {
			putI64(dst, whYTD, 30000000*100)
			putI32(dst, whTax, int32(r.uniform(0, 2000)))
			fillString(dst[whName:], uint64(i)*3+1)
		}, fill); err != nil {
		return err
	}

	// Districts.
	if err := w.district.BulkLoad(cfg.Warehouses*districtsPerWarehouse,
		func(i int) uint64 { return dKey(i/districtsPerWarehouse+1, i%districtsPerWarehouse+1) },
		func(i int, dst []byte) {
			putI64(dst, diYTD, 3000000*100)
			putI32(dst, diTax, int32(r.uniform(0, 2000)))
			putU32(dst, diNextOID, uint32(cfg.InitialOrdersPerDistrict+1))
			fillString(dst[diName:], uint64(i)*5+2)
		}, fill); err != nil {
		return err
	}

	// Stock (per warehouse, ascending item id).
	if err := w.stock.BulkLoad(cfg.Warehouses*cfg.Items,
		func(i int) uint64 { return sKey(i/cfg.Items+1, i%cfg.Items+1) },
		func(i int, dst []byte) {
			putI32(dst, stQuantity, int32(r.uniform(10, 100)))
			for d := 0; d < districtsPerWarehouse; d++ {
				fillString(dst[stDist+d*24:stDist+(d+1)*24], uint64(i)+uint64(d))
			}
			fillString(dst[stData:stData+50], uint64(i)*11)
		}, fill); err != nil {
		return err
	}

	// Customers, the name index, history.
	nCust := cfg.Warehouses * districtsPerWarehouse * cfg.CustomersPerDistrict
	nameKeys := make([]uint64, 0, nCust)
	nameRows := make([][]byte, 0, nCust)
	emptyIdx := make([]byte, indexSize)
	if err := w.customer.BulkLoad(nCust,
		func(i int) uint64 {
			c := i%cfg.CustomersPerDistrict + 1
			d := i/cfg.CustomersPerDistrict%districtsPerWarehouse + 1
			wh := i/(cfg.CustomersPerDistrict*districtsPerWarehouse) + 1
			return cKey(wh, d, c)
		},
		func(i int, dst []byte) {
			c := i%cfg.CustomersPerDistrict + 1
			d := i/cfg.CustomersPerDistrict%districtsPerWarehouse + 1
			wh := i/(cfg.CustomersPerDistrict*districtsPerWarehouse) + 1
			putI64(dst, cuBalance, -1000)
			putI64(dst, cuCreditLim, 50000*100)
			putI32(dst, cuDiscount, int32(r.uniform(0, 5000)))
			credit := "GC"
			if r.intn(10) == 0 {
				credit = "BC"
			}
			copy(dst[cuCredit:], credit)
			fillString(dst[cuFirst:cuFirst+16], uint64(i)*17)
			copy(dst[cuMiddle:], "OE")
			nameIdx := w.lastNameIdx(c, r)
			lastName(nameIdx, dst[cuLast:cuLast+16])
			putI64(dst, cuSince, w.now)
			fillString(dst[cuData:cuData+500], uint64(i)*19)
			nameKeys = append(nameKeys, custNameKey(wh, d, nameIdx, c))
			nameRows = append(nameRows, emptyIdx)
		}, fill); err != nil {
		return err
	}
	if err := sortedLoad(w.custName, nameKeys, nameRows, fill); err != nil {
		return err
	}
	if err := w.history.BulkLoad(nCust,
		func(i int) uint64 { return uint64(i + 1) },
		func(i int, dst []byte) {
			putI64(dst, hiAmount, 1000)
			putI64(dst, hiDate, w.now)
			fillString(dst[hiData:hiData+24], uint64(i))
		}, fill); err != nil {
		return err
	}
	w.historySeq = uint64(nCust) + 1

	// Orders, order lines, new orders, and the customer-order index.
	return w.loadOrders(fill)
}

func (w *Workload) loadOrders(fill float64) error {
	cfg := w.cfg
	r := &w.rng
	nOrders := cfg.Warehouses * districtsPerWarehouse * cfg.InitialOrdersPerDistrict
	undelivered := cfg.InitialOrdersPerDistrict - cfg.InitialOrdersPerDistrict*7/10 // last ~30% pending

	type orderInfo struct {
		wh, d, o, c, olCnt int
	}
	orders := make([]orderInfo, 0, nOrders)
	// Customer permutation per district so each customer has orders.
	for wh := 1; wh <= cfg.Warehouses; wh++ {
		for d := 1; d <= districtsPerWarehouse; d++ {
			perm := make([]int, cfg.InitialOrdersPerDistrict)
			for i := range perm {
				perm[i] = i%cfg.CustomersPerDistrict + 1
			}
			for i := len(perm) - 1; i > 0; i-- {
				j := r.intn(i + 1)
				perm[i], perm[j] = perm[j], perm[i]
			}
			for o := 1; o <= cfg.InitialOrdersPerDistrict; o++ {
				orders = append(orders, orderInfo{wh, d, o, perm[o-1], r.uniform(5, 10)})
			}
		}
	}

	if err := w.order.BulkLoad(len(orders),
		func(i int) uint64 { return oKey(orders[i].wh, orders[i].d, orders[i].o) },
		func(i int, dst []byte) {
			oi := orders[i]
			putU32(dst, orCustomer, uint32(oi.c))
			putI64(dst, orEntryD, w.now)
			carrier := byte(0)
			if oi.o <= cfg.InitialOrdersPerDistrict-undelivered {
				carrier = byte(r.uniform(1, 10))
			}
			dst[orCarrier] = carrier
			dst[orOLCnt] = byte(oi.olCnt)
			dst[orAllLocal] = 1
		}, fill); err != nil {
		return err
	}

	// Order lines.
	type olRef struct{ oi, ol int }
	var ols []olRef
	for i, oi := range orders {
		for ol := 1; ol <= oi.olCnt; ol++ {
			ols = append(ols, olRef{i, ol})
		}
	}
	if err := w.orderLine.BulkLoad(len(ols),
		func(i int) uint64 {
			oi := orders[ols[i].oi]
			return olKey(oi.wh, oi.d, oi.o, ols[i].ol)
		},
		func(i int, dst []byte) {
			oi := orders[ols[i].oi]
			putU32(dst, olItem, uint32(r.uniform(1, cfg.Items)))
			putU32(dst, olSupplyW, uint32(oi.wh))
			delivered := oi.o <= cfg.InitialOrdersPerDistrict-undelivered
			if delivered {
				putI64(dst, olDeliveryD, w.now)
				putI64(dst, olAmount, 0)
			} else {
				putI64(dst, olAmount, int64(r.uniform(1, 999999)))
			}
			dst[olQuantity] = 5
			fillString(dst[olDistInfo:olDistInfo+24], uint64(i))
		}, fill); err != nil {
		return err
	}

	// New orders: the undelivered tail of each district.
	var noKeys []uint64
	for _, oi := range orders {
		if oi.o > cfg.InitialOrdersPerDistrict-undelivered {
			noKeys = append(noKeys, oKey(oi.wh, oi.d, oi.o))
		}
	}
	sort.Slice(noKeys, func(a, b int) bool { return noKeys[a] < noKeys[b] })
	if err := w.newOrder.BulkLoad(len(noKeys),
		func(i int) uint64 { return noKeys[i] },
		func(i int, dst []byte) {}, fill); err != nil {
		return err
	}

	// Customer-order index.
	coKeys := make([]uint64, len(orders))
	coRows := make([][]byte, len(orders))
	for i, oi := range orders {
		coKeys[i] = custOrderKey(oi.wh, oi.d, oi.c, oi.o)
		row := make([]byte, indexSize)
		putU32(row, 0, uint32(oi.o))
		coRows[i] = row
	}
	return sortedLoad(w.custOrder, coKeys, coRows, fill)
}

// Package tpcc implements the TPC-C benchmark over the storage engine, as
// used in the paper's evaluation (§5.2): the full nine-table schema, the
// five transaction profiles at the standard mix, and no think times. Each
// table is a B+-tree with fixed-size binary rows; two secondary indexes
// (customer by last name, latest order by customer) support the
// by-last-name and order-status paths.
//
// The Config scale knobs default to the specification's cardinalities
// (100,000 items, 3,000 customers per district, ...); benchmarks at
// laptop scale shrink them proportionally, which preserves the paper's
// observation that TPC-C's working set is a small hot fraction of the
// data.
package tpcc

import "encoding/binary"

// Tree identifiers for the nine tables and two indexes.
const (
	TableWarehouse uint64 = iota + 1
	TableDistrict
	TableCustomer
	TableHistory
	TableNewOrder
	TableOrder
	TableOrderLine
	TableItem
	TableStock
	IndexCustomerName
	IndexCustomerOrder
)

// Row payload sizes (bytes). Strings are fixed-width, money is int64
// cents, rates are int32 basis points.
const (
	warehouseSize = 96
	districtSize  = 104
	customerSize  = 664
	historySize   = 64
	newOrderSize  = 8
	orderSize     = 32
	orderLineSize = 64
	itemSize      = 88
	stockSize     = 312
	indexSize     = 8
)

// Districts per warehouse, fixed by the specification.
const districtsPerWarehouse = 10

// maxOrderID bounds order ids for the reverse-order index encoding.
const maxOrderID = 1<<24 - 1

// Key encodings. Bit budget: warehouse 12 bits, district 4, customer 12,
// order 24, order line 4, item 20, name index 16.

func wKey(w int) uint64 { return uint64(w) }

func dKey(w, d int) uint64 { return uint64(w)<<4 | uint64(d) }

func cKey(w, d, c int) uint64 { return dKey(w, d)<<12 | uint64(c) }

func oKey(w, d, o int) uint64 { return dKey(w, d)<<24 | uint64(o) }

func olKey(w, d, o, ol int) uint64 { return oKey(w, d, o)<<4 | uint64(ol) }

func iKey(i int) uint64 { return uint64(i) }

func sKey(w, i int) uint64 { return uint64(w)<<20 | uint64(i) }

// custNameKey indexes customers by (district, last-name id, customer id).
func custNameKey(w, d, nameIdx, c int) uint64 {
	return dKey(w, d)<<28 | uint64(nameIdx)<<12 | uint64(c)
}

// custOrderKey indexes a customer's orders newest-first: the order id is
// stored inverted so an ascending scan returns the latest order first.
func custOrderKey(w, d, c, o int) uint64 {
	return cKey(w, d, c)<<24 | uint64(maxOrderID-o)
}

// olKeyOrder extracts the order prefix of an order-line key.
func olKeyOrder(k uint64) uint64 { return k >> 4 }

// Field offsets within rows. Only the fields the transactions touch are
// named; the remaining bytes hold the generated filler strings.

// Warehouse row.
const (
	whYTD  = 0  // int64 cents
	whTax  = 8  // int32 basis points
	whName = 12 // [10]byte
)

// District row.
const (
	diYTD     = 0  // int64 cents
	diTax     = 8  // int32 basis points
	diNextOID = 12 // uint32
	diName    = 16 // [10]byte
)

// Customer row.
const (
	cuBalance     = 0  // int64 cents
	cuYTDPayment  = 8  // int64 cents
	cuPaymentCnt  = 16 // uint16
	cuDeliveryCnt = 18 // uint16
	cuCreditLim   = 20 // int64 cents
	cuDiscount    = 28 // int32 basis points
	cuCredit      = 32 // [2]byte "GC"/"BC"
	cuFirst       = 34 // [16]byte
	cuMiddle      = 50 // [2]byte
	cuLast        = 52 // [16]byte
	cuSince       = 68 // int64
	cuData        = 76 // [500]byte
)

// History row.
const (
	hiCustomer = 0  // uint32 customer id
	hiCustD    = 4  // uint32
	hiCustW    = 8  // uint32
	hiD        = 12 // uint32
	hiW        = 16 // uint32
	hiDate     = 20 // int64
	hiAmount   = 28 // int64 cents
	hiData     = 36 // [24]byte
)

// Order row.
const (
	orCustomer = 0  // uint32
	orEntryD   = 4  // int64
	orCarrier  = 12 // uint8 (0 = not delivered)
	orOLCnt    = 13 // uint8
	orAllLocal = 14 // uint8
)

// Order-line row.
const (
	olItem      = 0  // uint32
	olSupplyW   = 4  // uint32
	olDeliveryD = 8  // int64 (0 = pending)
	olQuantity  = 16 // uint8
	olAmount    = 17 // int64 cents
	olDistInfo  = 25 // [24]byte
)

// Item row.
const (
	itImage = 0  // uint32
	itPrice = 4  // int64 cents
	itName  = 12 // [24]byte
	itData  = 36 // [50]byte
)

// Stock row.
const (
	stQuantity  = 0   // int32
	stYTD       = 4   // int64
	stOrderCnt  = 12  // uint16
	stRemoteCnt = 14  // uint16
	stDist      = 16  // [10][24]byte
	stData      = 256 // [50]byte
)

// Integer field helpers.

func getU32(row []byte, off int) uint32    { return binary.LittleEndian.Uint32(row[off:]) }
func putU32(row []byte, off int, v uint32) { binary.LittleEndian.PutUint32(row[off:], v) }
func putU16(row []byte, off int, v uint16) { binary.LittleEndian.PutUint16(row[off:], v) }
func putI64(row []byte, off int, v int64)  { binary.LittleEndian.PutUint64(row[off:], uint64(v)) }
func putI32(row []byte, off int, v int32)  { binary.LittleEndian.PutUint32(row[off:], uint32(v)) }

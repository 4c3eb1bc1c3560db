package workload

import (
	"math/rand"

	"github.com/disagglab/disagg/internal/query"
	"github.com/disagglab/disagg/internal/sim"
)

// TPCH generates a TPC-H-lite schema: lineitem and orders tables with the
// columns the Q1/Q3/Q6-shaped queries need, plus a customer table. Values
// are scaled to int64 (prices in cents, dates as day numbers).
type TPCH struct {
	// ScaleRows is the lineitem row count; orders = ScaleRows/4,
	// customers = ScaleRows/40.
	ScaleRows int
	// Clustered sorts lineitem by shipdate, which makes zone maps
	// effective (the E5 variable).
	Clustered bool
	Seed      int64
}

// days is the span of the date columns, in day numbers.
const days = 2556

// Lineitem column names.
const (
	LOrderKey  = "l_orderkey"
	LQuantity  = "l_quantity"
	LPrice     = "l_extendedprice"
	LDiscount  = "l_discount" // percent 0..10
	LShipDate  = "l_shipdate" // day number 0..2555 (7 years)
	LFlag      = "l_returnflag"
	OOrderKey  = "o_orderkey"
	OCustKey   = "o_custkey"
	OOrderDate = "o_orderdate"
	CCustKey   = "c_custkey"
	CNation    = "c_nationkey"
)

// Data bundles the generated tables.
type Data struct {
	Lineitem *query.Table
	Orders   *query.Table
	Customer *query.Table
}

// Generate builds the dataset.
func (t TPCH) Generate() *Data {
	if t.ScaleRows <= 0 {
		t.ScaleRows = 100_000
	}
	r := sim.NewRand(t.Seed, 0)
	nOrders := t.ScaleRows/4 + 1
	nCust := t.ScaleRows/40 + 1

	li := query.NewSizedTable(t.ScaleRows, LOrderKey, LQuantity, LPrice, LDiscount, LShipDate, LFlag)
	if t.Clustered {
		// Generate shipdates sorted: clustered layout.
		dates := make([]int64, t.ScaleRows)
		for i := range dates {
			dates[i] = int64(r.Intn(days))
		}
		sortDays(dates)
		for i := 0; i < t.ScaleRows; i++ {
			row := rowFor(r, nOrders, dates[i])
			li.AppendRow(row[:]...)
		}
	} else {
		for i := 0; i < t.ScaleRows; i++ {
			row := rowFor(r, nOrders, int64(r.Intn(days)))
			li.AppendRow(row[:]...)
		}
	}

	ord := query.NewSizedTable(nOrders, OOrderKey, OCustKey, OOrderDate)
	for i := 0; i < nOrders; i++ {
		ord.AppendRow(int64(i), int64(r.Intn(nCust)), int64(r.Intn(days)))
	}
	cust := query.NewSizedTable(nCust, CCustKey, CNation)
	for i := 0; i < nCust; i++ {
		cust.AppendRow(int64(i), int64(r.Intn(25)))
	}
	return &Data{Lineitem: li, Orders: ord, Customer: cust}
}

func rowFor(r *rand.Rand, nOrders int, date int64) [6]int64 {
	return [6]int64{
		int64(r.Intn(nOrders)),     // orderkey
		int64(1 + r.Intn(50)),      // quantity
		int64(100 + r.Intn(99900)), // price (cents)
		int64(r.Intn(11)),          // discount %
		date,                       // shipdate
		int64(r.Intn(3)),           // returnflag
	}
}

// sortDays sorts day numbers in [0, days) in place by counting them.
func sortDays(a []int64) {
	var count [days]int32
	for _, d := range a {
		count[d]++
	}
	i := 0
	for d, n := range count {
		for range n {
			a[i] = int64(d)
			i++
		}
	}
}

// Q6 builds the TPC-H Q6-shaped plan: a selective filter-and-aggregate on
// lineitem (revenue = sum(price*discount) approximated as sum(price) over
// the qualifying rows plus sum(discount)).
//
//	SELECT sum(l_extendedprice) FROM lineitem
//	WHERE l_shipdate in [dateLo, dateHi) AND l_discount in [dLo, dHi)
func Q6(cfg *sim.Config, src query.Source, dateLo, dateHi, dLo, dHi int64, prune bool) (query.Operator, error) {
	scan, err := query.NewScan(cfg, src, []string{LPrice}, []query.Predicate{
		{Col: LShipDate, Lo: dateLo, Hi: dateHi},
		{Col: LDiscount, Lo: dLo, Hi: dHi},
	}, prune)
	if err != nil {
		return nil, err
	}
	return query.NewHashAgg(cfg, scan, "", query.AggSpec{Col: LPrice}, query.AggSpec{}), nil
}

// Q1 builds the TPC-H Q1-shaped plan: scan most of lineitem, group by
// return flag, sum price and quantity.
func Q1(cfg *sim.Config, src query.Source, dateHi int64) (query.Operator, error) {
	scan, err := query.NewScan(cfg, src, []string{LFlag, LPrice, LQuantity}, []query.Predicate{
		{Col: LShipDate, Lo: 0, Hi: dateHi},
	}, true)
	if err != nil {
		return nil, err
	}
	return query.NewHashAgg(cfg, scan, LFlag, query.AggSpec{Col: LPrice}, query.AggSpec{Col: LQuantity}, query.AggSpec{}), nil
}

// Q3 builds the TPC-H Q3-shaped plan: join lineitem with orders (budgeted,
// spilling build side), then aggregate revenue per order date.
//
//	SELECT o_orderdate, sum(l_extendedprice) FROM lineitem JOIN orders
//	WHERE o_orderdate < cutoff GROUP BY o_orderdate
func Q3(cfg *sim.Config, li query.Source, ord query.Source, cutoff int64, budget *query.MemoryBudget) (query.Operator, error) {
	ordScan, err := query.NewScan(cfg, ord, []string{OOrderKey, OOrderDate}, []query.Predicate{
		{Col: OOrderDate, Lo: 0, Hi: cutoff},
	}, true)
	if err != nil {
		return nil, err
	}
	liScan, err := query.NewScan(cfg, li, []string{LOrderKey, LPrice}, nil, false)
	if err != nil {
		return nil, err
	}
	join := query.NewHashJoin(cfg, ordScan, liScan, OOrderKey, LOrderKey, budget)
	return query.NewHashAgg(cfg, join, "b_"+OOrderDate, query.AggSpec{Col: LPrice}), nil
}

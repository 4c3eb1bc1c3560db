package workload

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"github.com/disagglab/disagg/internal/query"
)

// tpchHash folds every column of the three tables, in order, into one FNV-1a
// hash.
func tpchHash(d *Data) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, tb := range []*query.Table{d.Lineitem, d.Orders, d.Customer} {
		for _, col := range tb.Cols {
			for _, v := range col {
				binary.LittleEndian.PutUint64(b[:], uint64(v))
				h.Write(b[:])
			}
		}
	}
	return h.Sum64()
}

// The generated tables are a fixed function of the seed: the hashes are the
// ones the generator produced when it still grew every column by appending
// and drew each lineitem row into a fresh slice, so a change to the order of
// the random draws shows here.
func TestTPCHGenerateIsUnchanged(t *testing.T) {
	for _, tc := range []struct {
		gen  TPCH
		want uint64
	}{
		{TPCH{ScaleRows: 10_000, Seed: 1}, 0xd1da82714622bc45},
		{TPCH{ScaleRows: 5000, Clustered: true, Seed: 2}, 0x87fd7b5a2e3808d0},
		{TPCH{ScaleRows: 777, Seed: 97}, 0x81b34192bb4ce1a},
	} {
		if got := tpchHash(tc.gen.Generate()); got != tc.want {
			t.Errorf("%+v: tables hash to %#x, want %#x", tc.gen, got, tc.want)
		}
	}
}

// Generate sizes every column once, so the objects it allocates do not
// depend on the row count.
func TestTPCHGenerateAllocationsDoNotGrowWithScale(t *testing.T) {
	for _, clustered := range []bool{false, true} {
		allocs := func(rows int) float64 {
			return testing.AllocsPerRun(3, func() { TPCH{ScaleRows: rows, Clustered: clustered, Seed: 1}.Generate() })
		}
		if small, large := allocs(2_000), allocs(64_000); small != large {
			t.Errorf("clustered=%v: %.0f allocs at 2,000 rows, %.0f at 64,000", clustered, small, large)
		}
	}
}

package tpcc

import (
	"fmt"
	"testing"
)

// TestKeysMatchSprintf pins every key builder to the fmt.Sprintf format it
// replaced, at each field's boundary values: keys are stored in the database
// file, so a builder that pads differently is a format change.
func TestKeysMatchSprintf(t *testing.T) {
	ids := []int{0, 1, 9, 10, 99, 100, 999, 1000, 99999, 100000, 99999999, 100000000}
	names := []string{"", "BARBARBAR", "CALLYCALLYATION", "SIXTEEN-COLUMNS.", "LONGER-THAN-SIXTEEN"}
	check := func(got, format string, args ...any) {
		t.Helper()
		if want := fmt.Sprintf(format, args...); got != want {
			t.Errorf("%q, want %q (%s of %v)", got, want, format, args)
		}
	}
	for _, a := range ids {
		check(kWarehouse(a), "%03d", a)
		check(kItem(a), "%06d", a)
		for _, b := range ids {
			check(kDistrict(a, b), "%03d-%02d", a, b)
			check(kStock(a, b), "%03d-%06d", a, b)
			check(kHistory(a, b), "%012d-%03d", a, b)
			check(kLineOf(kOrder(1, 2, a), b), "%03d-%02d-%08d-%02d", 1, 2, a, b)
			for _, name := range names {
				check(kCustNamePrefix(a, b, name), "%03d-%02d-%-16s", a, b, name)
				check(kCustName(a, b, name, a), "%03d-%02d-%-16s-%05d", a, b, name, a)
			}
			for _, c := range ids {
				check(kCustomer(a, b, c), "%03d-%02d-%05d", a, b, c)
				check(kOrder(a, b, c), "%03d-%02d-%08d", a, b, c)
				check(kOrderLine(a, b, c, b), "%03d-%02d-%08d-%02d", a, b, c, b)
				check(kOrderByCust(a, b, c, a), "%03d-%02d-%05d-%08d", a, b, c, a)
			}
		}
	}
	if n := testing.AllocsPerRun(100, func() { kOrderByCust(1, 10, 3000, 12345678) }); n > 1 {
		t.Errorf("kOrderByCust: %v allocations, want the key string only", n)
	}
}

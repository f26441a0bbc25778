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
	check := func(got []byte, format string, args ...any) {
		t.Helper()
		if want := fmt.Sprintf(format, args...); string(got) != want {
			t.Errorf("%q, want %q (%s of %v)", got, want, format, args)
		}
	}
	for _, a := range ids {
		check(kWarehouse(nil, a), "%03d", a)
		check(kItem(nil, a), "%06d", a)
		for _, b := range ids {
			check(kDistrict(nil, a, b), "%03d-%02d", a, b)
			check(kStock(nil, a, b), "%03d-%06d", a, b)
			check(kHistory(nil, a, b), "%012d-%03d", a, b)
			check(kLineOf(nil, kOrder(nil, 1, 2, a), b), "%03d-%02d-%08d-%02d", 1, 2, a, b)
			for _, name := range names {
				check(kCustNamePrefix(nil, a, b, name), "%03d-%02d-%-16s", a, b, name)
				check(kCustName(nil, a, b, name, a), "%03d-%02d-%-16s-%05d", a, b, name, a)
			}
			for _, c := range ids {
				check(kCustomer(nil, a, b, c), "%03d-%02d-%05d", a, b, c)
				check(kOrder(nil, a, b, c), "%03d-%02d-%08d", a, b, c)
				check(kOrderLine(nil, a, b, c, b), "%03d-%02d-%08d-%02d", a, b, c, b)
				check(kOrderByCust(nil, a, b, c, a), "%03d-%02d-%05d-%08d", a, b, c, a)
			}
		}
	}
	var buf keyBuf
	if n := testing.AllocsPerRun(100, func() { kOrderByCust(buf[:0], 1, 10, 3000, 12345678) }); n > 0 {
		t.Errorf("kOrderByCust: %v allocations building into the caller's buffer", n)
	}
}

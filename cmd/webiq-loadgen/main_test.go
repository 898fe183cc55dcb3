package main

import "testing"

func TestCheckRatesRejectsNonPositive(t *testing.T) {
	cases := []struct {
		rps, concurrency int
		ok               bool
	}{
		{50, 64, true},
		{1, 1, true},
		{0, 64, false},
		{-5, 64, false},
		{50, 0, false},
		{50, -1, false},
	}
	for _, c := range cases {
		err := checkRates(c.rps, c.concurrency)
		if (err == nil) != c.ok {
			t.Errorf("checkRates(%d, %d) = %v, want ok=%v", c.rps, c.concurrency, err, c.ok)
		}
	}
}

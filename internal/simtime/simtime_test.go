package simtime

import (
	"testing"
	"testing/quick"
)

func TestUnits(t *testing.T) {
	if Millisecond != 1000 {
		t.Fatalf("Millisecond = %d, want 1000", Millisecond)
	}
	if Second != 1000000 {
		t.Fatalf("Second = %d, want 1e6", Second)
	}
}

func TestTimeArithmetic(t *testing.T) {
	var start Time
	end := start.Add(250 * Millisecond)
	if got := end.Sub(start); got != 250*Millisecond {
		t.Errorf("Sub = %v, want 250ms", got)
	}
	if !start.Before(end) {
		t.Error("start should be before end")
	}
	if !end.After(start) {
		t.Error("end should be after start")
	}
	if end.Micros() != 250000 {
		t.Errorf("Micros = %v, want 250000", end.Micros())
	}
}

func TestConversions(t *testing.T) {
	if FromMillis(33.0) != 33*Millisecond {
		t.Errorf("FromMillis(33) = %v", FromMillis(33.0))
	}
	if d := FromMillis(0.5); d != 500 {
		t.Errorf("FromMillis(0.5) = %v, want 500µs", d)
	}
	if d := 250 * Millisecond; d.Millis() != 250 || d.Seconds() != 0.25 {
		t.Errorf("Millis/Seconds = %v/%v, want 250/0.25", d.Millis(), d.Seconds())
	}
}

func TestString(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{500, "500µs"},
		{33 * Millisecond, "33ms"},
		{3 * Second, "3s"},
		{-250, "-250µs"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", int64(c.d), got, c.want)
		}
	}
}

func TestMinMax(t *testing.T) {
	a, b := Time(10), Time(20)
	if Max(a, b) != b || Max(b, a) != b {
		t.Error("Max wrong")
	}
}

func TestNeverIsLate(t *testing.T) {
	huge := Time(0).Add(1e6 * Second)
	if !Never.After(huge) {
		t.Error("Never should exceed any practical instant")
	}
}

// Property: Add and Sub are inverses for any in-range pair.
func TestAddSubRoundTrip(t *testing.T) {
	f := func(base int32, delta int32) bool {
		tm := Time(base)
		d := Duration(delta)
		return tm.Add(d).Sub(tm) == d
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Max returns one of its arguments, no earlier than either.
func TestMinMaxProperties(t *testing.T) {
	f := func(a, b int64) bool {
		x, y := Time(a), Time(b)
		m := Max(x, y)
		return m >= x && m >= y && (m == x || m == y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

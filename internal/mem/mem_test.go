package mem

import (
	"testing"
	"testing/quick"
)

func TestLineAddr(t *testing.T) {
	cases := []struct {
		addr uint64
		line int
		want uint64
	}{
		{0, 128, 0},
		{127, 128, 0},
		{128, 128, 128},
		{0x1234, 128, 0x1200 | 0x00},
		{4095, 4096, 0},
		{4096, 4096, 4096},
	}
	for _, c := range cases {
		if got := LineAddr(c.addr, c.line); got != c.want {
			t.Errorf("LineAddr(%#x, %d) = %#x, want %#x", c.addr, c.line, got, c.want)
		}
	}
}

func TestPageAddr(t *testing.T) {
	if got := PageAddr(0x12345, PageBytes4K); got != 0x12000 {
		t.Errorf("PageAddr = %#x", got)
	}
}

// Property: LineAddr is idempotent and never exceeds the input.
func TestLineAddrProperty(t *testing.T) {
	f := func(addr uint64) bool {
		la := LineAddr(addr, 128)
		return la <= addr && LineAddr(la, 128) == la && addr-la < 128
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCompleteNilSafe(t *testing.T) {
	r := &Request{}
	r.Complete() // must not panic with nil Issuer
	called := 0
	r.Issuer = CompleterFunc(func(got *Request) {
		if got != r {
			t.Errorf("Completed got %p, want %p", got, r)
		}
		called++
	})
	r.Fire()
	if called != 1 {
		t.Errorf("called = %d", called)
	}
}

func TestFuncAdapter(t *testing.T) {
	hit := false
	var m Memory = Func(func(r *Request) { hit = true; r.Complete() })
	done := false
	m.Access(&Request{Issuer: CompleterFunc(func(*Request) { done = true })})
	if !hit || !done {
		t.Error("Func adapter failed")
	}
}

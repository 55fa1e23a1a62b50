package iobuf

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestViewManipulation(t *testing.T) {
	b := New(100)
	if b.Length() != 0 || b.Capacity() != 100 || b.Tailroom() != 100 {
		t.Fatal("fresh buffer geometry wrong")
	}
	region := b.Append(10)
	copy(region, "0123456789")
	if string(b.Data()) != "0123456789" {
		t.Fatalf("Data = %q", b.Data())
	}
	b.Advance(4)
	if string(b.Data()) != "456789" || b.Headroom() != 4 {
		t.Fatalf("after Advance: %q headroom=%d", b.Data(), b.Headroom())
	}
	b.Retreat(2)
	if string(b.Data()) != "23456789" {
		t.Fatalf("after Retreat: %q", b.Data())
	}
	b.TrimEnd(3)
	if string(b.Data()) != "23456" {
		t.Fatalf("after TrimEnd: %q", b.Data())
	}
}

func TestReserveThenPrepend(t *testing.T) {
	b := New(14 + 5)
	b.Reserve(14)
	if b.Length() != 0 || b.Headroom() != 14 || b.Tailroom() != 5 {
		t.Fatalf("after Reserve: len=%d headroom=%d tailroom=%d", b.Length(), b.Headroom(), b.Tailroom())
	}
	copy(b.Append(5), "hello")
	b.Retreat(14)
	copy(b.Data(), "ethernet-hdr::")
	if string(b.Data()) != "ethernet-hdr::hello" || b.Headroom() != 0 {
		t.Fatalf("after Retreat: %q headroom=%d", b.Data(), b.Headroom())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Reserve past the tailroom did not panic")
		}
	}()
	New(4).Reserve(5)
}

func TestViewPanics(t *testing.T) {
	cases := []struct {
		name string
		fn   func(*IOBuf)
	}{
		{"advance-overflow", func(b *IOBuf) { b.Advance(11) }},
		{"retreat-overflow", func(b *IOBuf) { b.Retreat(1) }},
		{"append-overflow", func(b *IOBuf) { b.Append(1000) }},
		{"trim-overflow", func(b *IOBuf) { b.TrimEnd(11) }},
		{"advance-negative", func(b *IOBuf) { b.Advance(-1) }},
		{"reserve-nonempty", func(b *IOBuf) { b.Reserve(1) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := New(20)
			b.Append(10)
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", tc.name)
				}
			}()
			tc.fn(b)
		})
	}
}

func TestFromBytesCopies(t *testing.T) {
	src := []byte("hello")
	b := FromBytes(src)
	src[0] = 'X'
	if string(b.Data()) != "hello" {
		t.Fatal("FromBytes did not copy")
	}
}

func TestWrapAliases(t *testing.T) {
	src := []byte("hello")
	b := Wrap(src)
	src[0] = 'X'
	if string(b.Data()) != "Xello" {
		t.Fatal("Wrap should alias")
	}
}

func TestChaining(t *testing.T) {
	a := FromBytes([]byte("aa"))
	b := FromBytes([]byte("bb"))
	c := FromBytes([]byte("cc"))
	a.AppendChain(b)
	a.AppendChain(c)
	if a.CountChainElements() != 3 {
		t.Fatalf("elements = %d", a.CountChainElements())
	}
	if a.ComputeChainDataLength() != 6 {
		t.Fatalf("chain length = %d", a.ComputeChainDataLength())
	}
	if got := a.CopyOut(); !bytes.Equal(got, []byte("aabbcc")) {
		t.Fatalf("CopyOut = %q", got)
	}
	if a.Next() != b || b.Next() != c || c.Next() != a {
		t.Fatal("next pointers wrong")
	}
	if a.Prev() != c {
		t.Fatal("prev pointer wrong")
	}
}

// TestAppendToReusesCapacity: AppendTo appends the whole chain after
// dst's bytes, and allocates nothing when dst has room.
func TestAppendToReusesCapacity(t *testing.T) {
	a := FromBytes([]byte("bb"))
	a.AppendChain(FromBytes([]byte("cc")))
	dst := append(make([]byte, 0, 16), 'a')
	got := a.AppendTo(dst)
	if !bytes.Equal(got, []byte("abbcc")) {
		t.Fatalf("AppendTo = %q", got)
	}
	if &got[0] != &dst[0] {
		t.Fatal("AppendTo reallocated a buffer with room to spare")
	}
	if allocs := testing.AllocsPerRun(100, func() { a.AppendTo(dst[:0]) }); allocs != 0 {
		t.Fatalf("AppendTo into a roomy buffer allocates %.0f objects", allocs)
	}
}

func TestAppendChainOfChains(t *testing.T) {
	a := FromBytes([]byte("a"))
	b := FromBytes([]byte("b"))
	a.AppendChain(b)
	c := FromBytes([]byte("c"))
	d := FromBytes([]byte("d"))
	c.AppendChain(d)
	a.AppendChain(c)
	if got := a.CopyOut(); !bytes.Equal(got, []byte("abcd")) {
		t.Fatalf("CopyOut = %q", got)
	}
	if a.CountChainElements() != 4 {
		t.Fatalf("elements = %d", a.CountChainElements())
	}
}

func TestUnlink(t *testing.T) {
	a := FromBytes([]byte("a"))
	b := FromBytes([]byte("b"))
	c := FromBytes([]byte("c"))
	a.AppendChain(b)
	a.AppendChain(c)
	rest := b.Unlink()
	if rest != c {
		t.Fatal("Unlink should return following element")
	}
	if b.IsChained() {
		t.Fatal("unlinked element still chained")
	}
	if got := a.CopyOut(); !bytes.Equal(got, []byte("ac")) {
		t.Fatalf("after unlink chain = %q", got)
	}
	if a.Unlink(); a.IsChained() {
		t.Fatal("unlink pair failed")
	}
	if FromBytes([]byte("x")).Unlink() != nil {
		t.Fatal("Unlink singleton should return nil")
	}
}

func TestForEachOrder(t *testing.T) {
	a := FromBytes([]byte("1"))
	a.AppendChain(FromBytes([]byte("2")))
	a.AppendChain(FromBytes([]byte("3")))
	var out []byte
	a.ForEach(func(e *IOBuf) { out = append(out, e.Data()...) })
	if string(out) != "123" {
		t.Fatalf("ForEach order %q", out)
	}
}

func TestDataPointerSingleElement(t *testing.T) {
	b := FromBytes([]byte{0x12, 0x34, 0x56, 0x78, 0x9a, 0xbc, 0xde, 0xf0, 0x01, 0x02})
	p := b.Reader()
	if p.Remaining() != 10 {
		t.Fatalf("Remaining = %d", p.Remaining())
	}
	v16, err := p.ReadUint16()
	if err != nil || v16 != 0x1234 {
		t.Fatalf("ReadUint16 = %x, %v", v16, err)
	}
	v32, err := p.ReadUint32()
	if err != nil || v32 != 0x56789abc {
		t.Fatalf("ReadUint32 = %x, %v", v32, err)
	}
	if err := p.Skip(2); err != nil {
		t.Fatal(err)
	}
	c, err := p.ReadByte()
	if err != nil || c != 0x01 {
		t.Fatalf("ReadByte = %x, %v", c, err)
	}
	if p.Remaining() != 1 {
		t.Fatalf("Remaining = %d", p.Remaining())
	}
}

func TestDataPointerAcrossChain(t *testing.T) {
	a := FromBytes([]byte{0xde, 0xad})
	a.AppendChain(FromBytes([]byte{0xbe}))
	a.AppendChain(FromBytes([]byte{0xef, 0x12, 0x34, 0x56, 0x78, 0x9a}))
	p := a.Reader()
	v, err := p.ReadUint32()
	if err != nil || v != 0xdeadbeef {
		t.Fatalf("straddling ReadUint32 = %x, %v", v, err)
	}
	v64buf, err := p.ReadBytes(5)
	if err != nil || !bytes.Equal(v64buf, []byte{0x12, 0x34, 0x56, 0x78, 0x9a}) {
		t.Fatalf("ReadBytes = %x, %v", v64buf, err)
	}
	if _, err := p.ReadByte(); err == nil {
		t.Fatal("read past end should fail")
	}
}

func TestDataPointerEmptyElements(t *testing.T) {
	a := FromBytes([]byte("ab"))
	a.AppendChain(New(10)) // empty view
	a.AppendChain(FromBytes([]byte("cd")))
	p := a.Reader()
	got, err := p.ReadBytes(4)
	if err != nil || string(got) != "abcd" {
		t.Fatalf("ReadBytes = %q, %v", got, err)
	}
}

func TestDataPointerSkipPastEnd(t *testing.T) {
	b := FromBytes([]byte("abc"))
	p := b.Reader()
	if err := p.Skip(4); err == nil {
		t.Fatal("Skip past end should fail")
	}
}

func TestDataPointerUint64(t *testing.T) {
	b := FromBytes([]byte{0, 0, 0, 0, 0, 0, 0x12, 0x34})
	v, err := b.Reader().ReadUint64()
	if err != nil || v != 0x1234 {
		t.Fatalf("ReadUint64 = %x, %v", v, err)
	}
}

// Property: any split of a byte string into chain elements preserves the
// data under CopyOut and DataPointer traversal.
func TestChainSplitProperty(t *testing.T) {
	prop := func(data []byte, cuts []uint8) bool {
		head := New(0)
		rest := data
		for _, c := range cuts {
			if len(rest) == 0 {
				break
			}
			n := int(c)%len(rest) + 1
			head.AppendChain(FromBytes(rest[:n]))
			rest = rest[n:]
		}
		if len(rest) > 0 {
			head.AppendChain(FromBytes(rest))
		}
		if head.ComputeChainDataLength() != len(data) {
			return false
		}
		if !bytes.Equal(head.CopyOut(), data) {
			return false
		}
		p := head.Reader()
		got, err := p.ReadBytes(len(data))
		if len(data) == 0 {
			return err == nil
		}
		return err == nil && bytes.Equal(got, data) && p.Remaining() == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

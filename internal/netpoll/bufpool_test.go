package netpoll

import "testing"

func TestReadBufPool(t *testing.T) {
	for _, size := range []int{1, 1024, readBufSize} {
		buf := getReadBuf(size)
		if len(buf) != size || cap(buf) != readBufSize {
			t.Errorf("getReadBuf(%d) len=%d cap=%d, want len=%d cap=%d",
				size, len(buf), cap(buf), size, readBufSize)
		}
		putReadBuf(buf)
	}
}

func TestReadBufOversizedFallsBack(t *testing.T) {
	const huge = readBufSize + 1
	buf := getReadBuf(huge)
	if len(buf) != huge || cap(buf) != huge {
		t.Fatalf("len = %d cap = %d, want %d fresh bytes", len(buf), cap(buf), huge)
	}
	putReadBuf(buf) // must not panic; dropped for the GC
}

func TestMessageReleaseIsIdempotentPerOwner(t *testing.T) {
	buf := getReadBuf(readBufSize)
	m := &Message{Data: buf[:5], raw: buf}
	m.Release()
	if m.Data != nil || m.raw != nil {
		t.Fatal("Release must clear the message")
	}
	m.Release() // second release is a no-op, not a double-put
}

func TestMessageWithoutPoolBufferReleasesSafely(t *testing.T) {
	m := &Message{Data: []byte("inline")}
	m.Release() // raw == nil: nothing to do
	if m.Data == nil {
		t.Fatal("unpooled data must survive Release")
	}
}

func BenchmarkReadBufPool(b *testing.B) {
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			buf := getReadBuf(readBufSize)
			buf[0] = 1
			putReadBuf(buf)
		}
	})
}

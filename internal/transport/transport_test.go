package transport

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"gendpr/internal/seal"
)

func TestPipeRoundTrip(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()

	want := Message{Kind: 3, Payload: []byte("hello")}
	go func() {
		if err := a.Send(want); err != nil {
			t.Errorf("Send: %v", err)
		}
	}()
	got, err := b.Recv()
	if err != nil {
		t.Fatalf("Recv: %v", err)
	}
	if got.Kind != want.Kind || !bytes.Equal(got.Payload, want.Payload) {
		t.Fatalf("got %+v, want %+v", got, want)
	}
}

func TestPipePreservesOrder(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	const n = 100
	go func() {
		for i := 0; i < n; i++ {
			if err := a.Send(Message{Kind: uint16(i)}); err != nil {
				t.Errorf("Send %d: %v", i, err)
				return
			}
		}
	}()
	for i := 0; i < n; i++ {
		m, err := b.Recv()
		if err != nil {
			t.Fatalf("Recv %d: %v", i, err)
		}
		if m.Kind != uint16(i) {
			t.Fatalf("message %d has kind %d", i, m.Kind)
		}
	}
}

func TestPipeCloseUnblocks(t *testing.T) {
	a, b := Pipe()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := b.Recv(); !errors.Is(err, ErrClosed) {
			t.Errorf("Recv after close: %v, want ErrClosed", err)
		}
	}()
	a.Close()
	wg.Wait()
	if err := a.Send(Message{}); !errors.Is(err, ErrClosed) {
		t.Errorf("Send after close: %v, want ErrClosed", err)
	}
	// Close is idempotent.
	if err := a.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

func TestFrameCodecRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	msgs := []Message{
		{Kind: 0, Payload: nil},
		{Kind: 1, Payload: []byte{}},
		{Kind: 65535, Payload: []byte("payload")},
		{Kind: 7, Payload: bytes.Repeat([]byte{0xAB}, 100000)},
	}
	for _, m := range msgs {
		if err := WriteFrame(&buf, m); err != nil {
			t.Fatalf("WriteFrame: %v", err)
		}
	}
	for i, want := range msgs {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("ReadFrame %d: %v", i, err)
		}
		if got.Kind != want.Kind || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("frame %d mismatch", i)
		}
	}
}

func TestReadFrameRejectsOversizedLength(t *testing.T) {
	// Header advertising a 4 GB frame.
	hdr := []byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0}
	if _, err := ReadFrame(bytes.NewReader(hdr)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("got %v, want ErrFrameTooLarge", err)
	}
}

func TestReadFrameTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, Message{Kind: 1, Payload: []byte("abcdef")}); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	if _, err := ReadFrame(bytes.NewReader(b[:len(b)-2])); err == nil {
		t.Fatal("truncated frame must fail")
	}
	if _, err := ReadFrame(bytes.NewReader(b[:3])); err == nil {
		t.Fatal("truncated header must fail")
	}
}

func TestTCPTransport(t *testing.T) {
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer l.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		c, err := l.Accept()
		if err != nil {
			t.Errorf("Accept: %v", err)
			return
		}
		defer c.Close()
		m, err := c.Recv()
		if err != nil {
			t.Errorf("server Recv: %v", err)
			return
		}
		m.Payload = append(m.Payload, '!')
		if err := c.Send(m); err != nil {
			t.Errorf("server Send: %v", err)
		}
	}()

	c, err := DialTimeout(l.Addr(), DefaultDialTimeout)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	if err := c.Send(Message{Kind: 9, Payload: []byte("ping")}); err != nil {
		t.Fatalf("client Send: %v", err)
	}
	m, err := c.Recv()
	if err != nil {
		t.Fatalf("client Recv: %v", err)
	}
	if string(m.Payload) != "ping!" || m.Kind != 9 {
		t.Fatalf("echo mismatch: %+v", m)
	}
	<-done
}

func TestDialFailure(t *testing.T) {
	if _, err := DialTimeout("127.0.0.1:1", DefaultDialTimeout); err == nil {
		t.Fatal("dialing a closed port must fail")
	}
}

func secureTestPair(t *testing.T) (Conn, Conn) {
	t.Helper()
	key, err := seal.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	a, b := Pipe()
	return NewSecure(a, key), NewSecure(b, key)
}

func TestSecureConnRoundTrip(t *testing.T) {
	a, b := secureTestPair(t)
	defer a.Close()
	defer b.Close()
	go func() {
		for i := 0; i < 5; i++ {
			if err := a.Send(Message{Kind: uint16(i), Payload: []byte{byte(i)}}); err != nil {
				t.Errorf("Send: %v", err)
				return
			}
		}
	}()
	for i := 0; i < 5; i++ {
		m, err := b.Recv()
		if err != nil {
			t.Fatalf("Recv %d: %v", i, err)
		}
		if m.Kind != uint16(i) || m.Payload[0] != byte(i) {
			t.Fatalf("message %d corrupted: %+v", i, m)
		}
	}
}

func TestSecureConnHidesPlaintext(t *testing.T) {
	key, _ := seal.NewKey()
	inner, peerInner := Pipe()
	sec := NewSecure(inner, key)
	go func() {
		if err := sec.Send(Message{Kind: 1, Payload: []byte("confidential allele counts")}); err != nil {
			t.Errorf("Send: %v", err)
		}
	}()
	raw, err := peerInner.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(raw.Payload, []byte("confidential")) {
		t.Fatal("secure transport leaked plaintext on the wire")
	}
}

func TestSecureConnRejectsTampering(t *testing.T) {
	key, _ := seal.NewKey()
	aInner, bInner := Pipe()
	a := NewSecure(aInner, key)
	b := NewSecure(bInner, key)
	_ = b

	// Intercept at the inner layer: flip a bit, then hand to the secure
	// receiver by re-wrapping a fresh pipe.
	go func() {
		if err := a.Send(Message{Kind: 1, Payload: []byte("data")}); err != nil {
			t.Errorf("Send: %v", err)
		}
	}()
	raw, err := bInner.Recv()
	if err != nil {
		t.Fatal(err)
	}
	raw.Payload[len(raw.Payload)-1] ^= 1
	cInner, dInner := Pipe()
	d := NewSecure(dInner, key)
	go func() {
		if err := cInner.Send(raw); err != nil {
			t.Errorf("forward: %v", err)
		}
	}()
	if _, err := d.Recv(); err == nil {
		t.Fatal("tampered ciphertext accepted")
	}
}

func TestSecureConnRejectsReplay(t *testing.T) {
	key, _ := seal.NewKey()
	aInner, bInner := Pipe()
	a := NewSecure(aInner, key)

	go func() {
		if err := a.Send(Message{Kind: 1, Payload: []byte("once")}); err != nil {
			t.Errorf("Send: %v", err)
		}
	}()
	raw, err := bInner.Recv()
	if err != nil {
		t.Fatal(err)
	}

	// Deliver the same ciphertext twice to a fresh secure receiver: the
	// second delivery must fail the sequence binding.
	cInner, dInner := Pipe()
	d := NewSecure(dInner, key)
	go func() {
		for i := 0; i < 2; i++ {
			if err := cInner.Send(raw); err != nil {
				t.Errorf("forward %d: %v", i, err)
			}
		}
	}()
	if _, err := d.Recv(); err != nil {
		t.Fatalf("first delivery must succeed: %v", err)
	}
	if _, err := d.Recv(); err == nil {
		t.Fatal("replayed ciphertext accepted")
	}
}

func TestSecureConnRejectsKindSwap(t *testing.T) {
	key, _ := seal.NewKey()
	aInner, bInner := Pipe()
	a := NewSecure(aInner, key)
	go func() {
		if err := a.Send(Message{Kind: 1, Payload: []byte("typed")}); err != nil {
			t.Errorf("Send: %v", err)
		}
	}()
	raw, err := bInner.Recv()
	if err != nil {
		t.Fatal(err)
	}
	raw.Kind = 2 // attacker relabels the message
	cInner, dInner := Pipe()
	d := NewSecure(dInner, key)
	go func() {
		if err := cInner.Send(raw); err != nil {
			t.Errorf("forward: %v", err)
		}
	}()
	if _, err := d.Recv(); err == nil {
		t.Fatal("re-typed ciphertext accepted")
	}
}

func TestWriteFrameOversized(t *testing.T) {
	var buf bytes.Buffer
	big := Message{Payload: make([]byte, MaxFrameSize+1)}
	if err := WriteFrame(&buf, big); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("got %v, want ErrFrameTooLarge", err)
	}
}

package transport

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"
)

func TestPipeRecvDeadlineExpires(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()

	start := time.Now()
	_, err := RecvContext(context.Background(), b, 30*time.Millisecond)
	if !IsTimeout(err) {
		t.Fatalf("RecvContext error = %v, want timeout", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("RecvContext took %v, expected prompt expiry", elapsed)
	}
}

func TestPipeSendDeadlineExpiresWhenFull(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()

	// Fill the single-message buffer; the second send must block, then
	// time out.
	if err := a.Send(Message{Kind: 1}); err != nil {
		t.Fatalf("first Send: %v", err)
	}
	err := SendContext(context.Background(), a, Message{Kind: 2}, 30*time.Millisecond)
	if !IsTimeout(err) {
		t.Fatalf("SendContext error = %v, want timeout", err)
	}
}

func TestPipeDeadlineClearedAfterHelper(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()

	if _, err := RecvContext(context.Background(), b, 10*time.Millisecond); !IsTimeout(err) {
		t.Fatalf("RecvContext error = %v, want timeout", err)
	}
	// The helper must clear the deadline: a plain Recv afterwards blocks
	// until the message arrives instead of re-firing the old deadline.
	go func() {
		time.Sleep(20 * time.Millisecond)
		a.Send(Message{Kind: 7})
	}()
	m, err := b.Recv()
	if err != nil {
		t.Fatalf("Recv after cleared deadline: %v", err)
	}
	if m.Kind != 7 {
		t.Fatalf("Kind = %d, want 7", m.Kind)
	}
}

func TestPipeRecvDeliversBeforeDeadline(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()

	go a.Send(Message{Kind: 5, Payload: []byte("x")})
	m, err := RecvContext(context.Background(), b, 5*time.Second)
	if err != nil {
		t.Fatalf("RecvContext: %v", err)
	}
	if m.Kind != 5 {
		t.Fatalf("Kind = %d, want 5", m.Kind)
	}
}

func TestTCPRecvDeadlineExpires(t *testing.T) {
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer l.Close()
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		// Hold the connection open without replying.
		defer c.Close()
		time.Sleep(2 * time.Second)
	}()
	c, err := DialTimeout(l.Addr(), DefaultDialTimeout)
	if err != nil {
		t.Fatalf("DialTimeout: %v", err)
	}
	defer c.Close()

	_, err = RecvContext(context.Background(), c, 50*time.Millisecond)
	if !IsTimeout(err) {
		t.Fatalf("RecvContext error = %v, want timeout", err)
	}
}

func TestSecureConnForwardsDeadline(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	key := bytes.Repeat([]byte{0x42}, 32)
	sa, sb := NewSecure(a, key), NewSecure(b, key)

	if _, ok := Conn(sa).(Deadliner); !ok {
		t.Fatal("secure conn does not implement Deadliner")
	}
	if _, err := RecvContext(context.Background(), sb, 30*time.Millisecond); !IsTimeout(err) {
		t.Fatal("secure RecvContext did not time out")
	}
	// And still works for a real message afterwards.
	go sa.Send(Message{Kind: 9, Payload: []byte("ok")})
	m, err := RecvContext(context.Background(), sb, 5*time.Second)
	if err != nil {
		t.Fatalf("secure RecvContext: %v", err)
	}
	if m.Kind != 9 || string(m.Payload) != "ok" {
		t.Fatalf("got %+v", m)
	}
}

func TestMeteredConnForwardsDeadline(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	var meter Meter
	mb := NewMetered(b, &meter)
	if _, ok := mb.(Deadliner); !ok {
		t.Fatal("metered conn does not implement Deadliner")
	}
	if _, err := RecvContext(context.Background(), mb, 30*time.Millisecond); !IsTimeout(err) {
		t.Fatal("metered RecvContext did not time out")
	}
}

func TestFaultErrorFiresOnce(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	fa := NewFault(a, FaultPoint{Op: FaultSend, Kind: FaultError, N: 2})

	if err := fa.Send(Message{Kind: 1}); err != nil {
		t.Fatalf("Send 1: %v", err)
	}
	if _, err := b.Recv(); err != nil {
		t.Fatalf("Recv 1: %v", err)
	}
	err := fa.Send(Message{Kind: 2})
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("Send 2 error = %v, want ErrInjected", err)
	}
	if !fa.Fired() {
		t.Fatal("fault did not report Fired")
	}
	// Transparent after firing.
	if err := fa.Send(Message{Kind: 3}); err != nil {
		t.Fatalf("Send 3: %v", err)
	}
	if m, err := b.Recv(); err != nil || m.Kind != 3 {
		t.Fatalf("Recv 3 = %+v, %v", m, err)
	}
}

func TestFaultKindTargeting(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	fa := NewFault(a, FaultPoint{Op: FaultSend, Kind: FaultError, MsgKind: 8})

	go func() {
		for i := 0; i < 2; i++ {
			b.Recv()
		}
	}()
	if err := fa.Send(Message{Kind: 7}); err != nil {
		t.Fatalf("Send kind 7: %v", err)
	}
	if err := fa.Send(Message{Kind: 9}); err != nil {
		t.Fatalf("Send kind 9: %v", err)
	}
	if err := fa.Send(Message{Kind: 8}); !errors.Is(err, ErrInjected) {
		t.Fatalf("Send kind 8 error = %v, want ErrInjected", err)
	}
}

func TestFaultCloseTearsDownConn(t *testing.T) {
	a, b := Pipe()
	fa := NewFault(a, FaultPoint{Op: FaultSend, Kind: FaultClose})

	if err := fa.Send(Message{Kind: 1}); !errors.Is(err, ErrInjected) {
		t.Fatalf("Send error = %v, want ErrInjected", err)
	}
	if _, err := b.Recv(); !errors.Is(err, ErrClosed) {
		t.Fatalf("peer Recv error = %v, want ErrClosed", err)
	}
}

func TestFaultDropRecvSkipsMessage(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	fb := NewFault(b, FaultPoint{Op: FaultRecv, Kind: FaultDrop})

	go func() {
		a.Send(Message{Kind: 1})
		a.Send(Message{Kind: 2})
	}()
	m, err := fb.Recv()
	if err != nil {
		t.Fatalf("Recv: %v", err)
	}
	if m.Kind != 2 {
		t.Fatalf("Kind = %d, want 2 (message 1 dropped)", m.Kind)
	}
}

func TestFaultDelayTripsDeadline(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	fb := NewFault(b, FaultPoint{Op: FaultRecv, Kind: FaultDelay, Delay: 80 * time.Millisecond})

	go a.Send(Message{Kind: 4})
	_, err := RecvContext(context.Background(), fb, 20*time.Millisecond)
	if !IsTimeout(err) {
		t.Fatalf("RecvContext error = %v, want timeout", err)
	}
}

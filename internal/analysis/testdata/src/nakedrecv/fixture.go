// Package fixture exercises the nakedrecv analyzer: direct Conn.Recv calls
// are unbounded waits and must go through a deadline-aware wrapper.
package fixture

import (
	"context"
	"errors"
	"time"
)

// Message stands in for transport.Message.
type Message struct {
	Kind    uint16
	Payload []byte
}

// Conn stands in for transport.Conn.
type Conn interface {
	Send(Message) error
	Recv() (Message, error)
	Close() error
}

// RecvContext stands in for the transport package's timed receive.
func RecvContext(ctx context.Context, c Conn, timeout time.Duration) (Message, error) {
	//gendpr:allow(nakedrecv): this IS the deadline wrapper; the deadline is set above
	return c.Recv()
}

func nakedLoop(c Conn) error {
	for {
		msg, err := c.Recv() // want "waits forever on a silent peer"
		if err != nil {
			return err
		}
		_ = msg
	}
}

func nakedInline(c Conn) (Message, error) {
	return c.Recv() // want "waits forever on a silent peer"
}

func wrapped(c Conn) error {
	msg, err := RecvContext(context.Background(), c, time.Second)
	if err != nil {
		return err
	}
	_ = msg
	return nil
}

func justified(c Conn) (Message, error) {
	//gendpr:allow(nakedrecv): handshake step bounded by the caller's watchdog
	return c.Recv()
}

// receiver is an unrelated type whose Recv is not a connection receive; the
// type-aware refinement must leave it alone.
type mailbox struct{ queue []string }

func (m *mailbox) Recv() string {
	if len(m.queue) == 0 {
		return ""
	}
	head := m.queue[0]
	m.queue = m.queue[1:]
	return head
}

func unrelated(m *mailbox) string {
	return m.Recv()
}

// errOnly returns one value; not a message receive either.
type errOnly struct{}

func (errOnly) Recv() error { return errors.New("nope") }

func alsoUnrelated(e errOnly) error {
	return e.Recv()
}

package transport

import (
	"context"
	"time"
)

// aLongTimeAgo is a non-zero time far in the past, used to immediately expire
// an in-flight operation when its context is canceled (the same trick the
// net/http internals use: a past deadline unblocks pending I/O).
var aLongTimeAgo = time.Unix(1, 0)

// SendContext sends one message, honoring both the context and the timeout
// (a non-positive timeout waits forever). It is the one timed send: the
// deadline is cleared afterwards. Cancellation interrupts an in-flight send
// by smashing the connection deadline into the past; the returned error is
// then ctx.Err(). A nil or never-canceled context arms the timeout alone.
func SendContext(ctx context.Context, c Conn, m Message, timeout time.Duration) error {
	finish, err := arm(ctx, c, timeout)
	if err != nil {
		return err
	}
	return finish(c.Send(m))
}

// RecvContext receives one message, honoring both the context and the
// timeout, as SendContext does. A timeout that expires first fails with an
// error satisfying IsTimeout.
func RecvContext(ctx context.Context, c Conn, timeout time.Duration) (Message, error) {
	finish, err := arm(ctx, c, timeout)
	if err != nil {
		return Message{}, err
	}
	m, err := c.Recv()
	if err = finish(err); err != nil {
		return Message{}, err
	}
	return m, nil
}

// arm sets a connection deadline that combines the context with the timeout.
// It returns the context's error when the context is already done; otherwise
// finish must wrap the operation's error: it disarms the deadline and, under
// a cancelable context, the cancel watcher, substituting ctx.Err() when
// cancellation is what broke the operation. A connection without deadlines
// runs the operation unbounded and lets the caller notice cancellation
// afterwards.
func arm(ctx context.Context, c Conn, timeout time.Duration) (finish func(error) error, err error) {
	pass := func(e error) error { return e }
	if ctx == nil || ctx.Done() == nil {
		if timeout <= 0 || !setDeadline(c, time.Now().Add(timeout)) {
			return pass, nil
		}
		return func(opErr error) error {
			setDeadline(c, time.Time{})
			return opErr
		}, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	deadline := time.Time{}
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
	}
	if d, hasD := ctx.Deadline(); hasD && (deadline.IsZero() || d.Before(deadline)) {
		deadline = d
	}
	if !setDeadline(c, deadline) {
		return pass, nil
	}
	// Register the cancel watcher only after the base deadline is set, so a
	// concurrent cancellation cannot have its past-deadline overwritten by
	// the setDeadline above.
	stop := context.AfterFunc(ctx, func() {
		setDeadline(c, aLongTimeAgo)
	})
	return func(opErr error) error {
		stopped := stop()
		setDeadline(c, time.Time{})
		if opErr == nil {
			// Even a canceled context does not destroy a completed
			// operation; deliver the result.
			return nil
		}
		// Report cancellation rather than the induced timeout when the
		// context is what broke the operation: either the watcher fired
		// mid-flight, or the armed deadline was the context's own.
		if err := ctx.Err(); err != nil && (!stopped || IsTimeout(opErr)) {
			return err
		}
		if IsTimeout(opErr) {
			// The connection's timer can fire a hair before the context's
			// own; judge by the wall clock, not the racing ctx.Err().
			if d, hasD := ctx.Deadline(); hasD && !time.Now().Before(d) {
				return context.DeadlineExceeded
			}
		}
		return opErr
	}, nil
}

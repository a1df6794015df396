// Package fixture exercises the lockacrosssend analyzer: a mutex held
// across a channel operation or a transport Send/Recv call.
package fixture

import "sync"

// Conn stands in for transport.Conn.
type Conn struct{}

func (Conn) Send(b []byte) error          { return nil }
func (Conn) Recv() ([]byte, error)        { return nil, nil }
func (Conn) Close() error                 { return nil }
func (Conn) Describe(prefix string) error { return nil }

type node struct {
	mu   sync.Mutex
	conn Conn
	ch   chan int
	seq  int
}

// BadSendUnderLock holds the mutex across a channel send.
func (n *node) BadSendUnderLock(v int) {
	n.mu.Lock()
	n.seq++
	n.ch <- v // want "channel send while n.mu is locked"
	n.mu.Unlock()
}

// BadRecvUnderDeferredLock pins the lock for the whole function, then
// blocks on a receive.
func (n *node) BadRecvUnderDeferredLock() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return <-n.ch // want "channel receive while n.mu is locked"
}

// BadTransportSend holds the mutex across a blocking transport call.
func (n *node) BadTransportSend(b []byte) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.conn.Send(b) // want "call to n.conn.Send while n.mu is locked"
}

// BadNestedBlock: the communication hides inside a nested if body.
func (n *node) BadNestedBlock(b []byte) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if len(b) > 0 {
		if _, err := n.conn.Recv(); err != nil { // want "call to n.conn.Recv while n.mu is locked"
			return err
		}
	}
	return nil
}

// BadDeferredSend: deferred calls run last-in first-out, so the Send runs
// before the Unlock deferred ahead of it.
func (n *node) BadDeferredSend(b []byte) {
	n.mu.Lock()
	defer n.mu.Unlock()
	defer n.conn.Send(b) // want "call to n.conn.Send while n.mu is locked"
}

// GoodUnlockBeforeSend releases before communicating.
func (n *node) GoodUnlockBeforeSend(v int) {
	n.mu.Lock()
	n.seq++
	n.mu.Unlock()
	n.ch <- v
}

// GoodLockAroundStateOnly never communicates under the lock.
func (n *node) GoodLockAroundStateOnly() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.seq++
	return n.seq
}

// GoodFuncLitBoundary: the literal runs on another goroutine's schedule;
// the analyzer must not charge the outer lock to it.
func (n *node) GoodFuncLitBoundary() func(int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return func(v int) {
		n.ch <- v
	}
}

// GoodNonMutexLock: a Lock method on a non-mutex type is not tracked when
// type information identifies it.
type fakeLocker struct{}

func (fakeLocker) Lock()   {}
func (fakeLocker) Unlock() {}

func GoodNonMutex(c Conn, f fakeLocker, b []byte) error {
	f.Lock()
	defer f.Unlock()
	return c.Send(b)
}

// embedsMutex promotes Lock/Unlock from an embedded mutex; it must still be
// tracked.
type embedsMutex struct {
	sync.Mutex
	conn Conn
}

func (e *embedsMutex) BadEmbedded(b []byte) error {
	e.Lock()
	defer e.Unlock()
	return e.conn.Send(b) // want "call to e.conn.Send while e is locked"
}

// BadLockOnOneBranch: a lock taken on one branch is still held after the
// merge on that path.
func (n *node) BadLockOnOneBranch(v int, exclusive bool) {
	if exclusive {
		n.mu.Lock()
	}
	n.ch <- v // want "channel send while n.mu is locked"
	if exclusive {
		n.mu.Unlock()
	}
}

// GoodUnlockOnBothBranches: every path releases before the send.
func (n *node) GoodUnlockOnBothBranches(v int) {
	n.mu.Lock()
	if v > 0 {
		n.seq += v
		n.mu.Unlock()
	} else {
		n.mu.Unlock()
	}
	n.ch <- v
}

// GoodUnlockInLoop: each iteration releases before it sends.
func (n *node) GoodUnlockInLoop(vs []int) {
	for _, v := range vs {
		n.mu.Lock()
		n.seq += v
		n.mu.Unlock()
		n.ch <- v
	}
}
